"""Seeded input generator for the benchmark workloads.

Everything a workload feeds the library is drawn here from one seed: the
boundary phases (theta, phi, psi) per coupling w, the step packets, and the
call order within each pass.  The coupling values, times, x and lambda grids
are fixed so that a pass does the same amount of work whatever the seed.

Packets are built slot by slot: the window of a domain component is cut
into equal slots and one cell is drawn strictly inside each slot, so cells
never touch, never merge, and never reach the removed intervals [0, 1] and
[alpha, beta] (``decompose`` sees no obstacle mass).  Each packet is scaled
to unit norm so absolute tolerances mean the same thing on every packet.
"""

from __future__ import annotations

import numpy as np

from twogap.domain import make_boundary_matrix, make_domain
from twogap.packets import StepPacket, sum_packets

# Parameters of the generator; the workload rationales live in BENCHMARK.json.
GENERATOR = {
    "weak_coupling_dynamics": {
        "domain": (2.25, 3.75),
        "w": (0.9, 0.5, 0.2, 0.05),
        "t": (1.0, 10.0, 100.0),
        "cesaro_horizons": (4.0, 8.0),
        # evolve packet per (w, t): cells on I_minus, cells on I_zero, and
        # the frequencies the cells cycle through.  The series length grows
        # like log(1/eps)/w^2, so the packet shrinks as w falls to keep
        # every row of the pass affordable; at w = 0.05 a cell on I_zero
        # would double the cost (the 56k-term m_squared_inv series).
        "evolve_cells": {
            0.9: (6, 2, (0, 1)),
            0.5: (4, 2, (0, 1)),
            0.2: (3, 1, (0, 1)),
            0.05: (3, 0, (0,)),
        },
        "compress_cells": 1,
        "scatter_cells": 2,
        # cesaro_decay needs frequency-0 packets: f on I_minus and I_zero,
        # g on I_minus.
        "cesaro_f_cells": (1, 1),
        "cesaro_g_cells": 1,
    },
    "oracle_quadrature": {
        # the fold-node oracles need a unit middle interval (1, 2)
        "domain": (2.0, 3.0),
        "w": (0.9, 0.5, 0.2),
        # one frequency-0 cell in each component
        "sigma_cells": (1, 1, 1),
        "resolvent_lambda": complex(1.2, 0.7),
        "resolvent_x": (1.0 + 1e-6, 2.0 - 1e-6, 101),
        "middle_cells": 2,
        "middle_freqs": (0, 1),
        "kernel_t": 0.7,
        "kernel_lambda": (-5.0, 5.0, 41),
        "profile_t": (0.0, 0.35, 0.8, 1.3, 2.0, 3.1, 4.6),
        "profile_freqs": (0, 1),
        # adjoint_transform's tail expansion needs frequency-0 cells
        "adjoint_cells": 1,
        "forward_grid": (-1.0, 1.0, 5),
    },
}

# Finite windows of the two half-lines that packets are drawn from.
LEFT_WINDOW = (-3.0, 0.0)
RIGHT_SPAN = 2.0


def boundary(rng, w):
    """Boundary matrix at coupling w with seeded phases."""
    theta, phi, psi = rng.uniform(0.0, 1.0, size=3)
    return make_boundary_matrix(w, theta=theta, phi=phi, psi=psi)


def cells(rng, lo, hi, n, freqs=(0,)):
    """n disjoint cells strictly inside (lo, hi), one per equal slot.

    Cell k carries frequency freqs[k % len(freqs)], so the frequency mix,
    and with it the cost of a call, does not depend on the seed.
    """
    width = (hi - lo) / max(n, 1)
    out = []
    for k in range(n):
        a = lo + k * width
        u = a + width * rng.uniform(0.05, 0.45)
        v = a + width * rng.uniform(0.55, 0.95)
        value = complex(rng.normal(), rng.normal())
        out.append(StepPacket.box(u, v, value, freq=freqs[k % len(freqs)]))
    return out


def packet(rng, domain, n_left=0, n_mid=0, n_right=0, freqs=(0,)):
    """Unit-norm packet with the given cell count on each component."""
    parts = cells(rng, *LEFT_WINDOW, n_left, freqs)
    parts += cells(rng, 1.0, domain.alpha, n_mid, freqs)
    parts += cells(rng, domain.beta, domain.beta + RIGHT_SPAN, n_right, freqs)
    f = sum_packets(parts)
    return f.scale(1.0 / np.sqrt(f.norm2()))


def weak_coupling_inputs(seed):
    """Per-w boundary matrices and packets for ``weak_coupling_dynamics``."""
    p = GENERATOR["weak_coupling_dynamics"]
    rng = np.random.default_rng([seed, 1])
    dom = make_domain(*p["domain"])
    rows = []
    for w in p["w"]:
        n_left, n_mid, freqs = p["evolve_cells"][w]
        rows.append(
            {
                "w": w,
                "bm": boundary(rng, w),
                "evolve": [packet(rng, dom, n_left, n_mid, freqs=freqs) for _ in p["t"]],
                "compress": packet(rng, dom, n_mid=p["compress_cells"]),
                "scatter": packet(rng, dom, n_left=p["scatter_cells"]),
                "cesaro_f": packet(rng, dom, *p["cesaro_f_cells"]),
                "cesaro_g": packet(rng, dom, n_left=p["cesaro_g_cells"]),
            }
        )
    return {"domain": dom, "rows": rows, "params": p}


def oracle_inputs(seed):
    """Per-w boundary matrices and packets for ``oracle_quadrature``."""
    p = GENERATOR["oracle_quadrature"]
    rng = np.random.default_rng([seed, 2])
    dom = make_domain(*p["domain"])
    rows = []
    for w in p["w"]:
        rows.append(
            {
                "w": w,
                "bm": boundary(rng, w),
                "sigma": packet(rng, dom, *p["sigma_cells"]),
                "resolvent": packet(
                    rng, dom, n_mid=p["middle_cells"], freqs=p["middle_freqs"]
                ),
                "kernel": packet(
                    rng, dom, n_mid=p["middle_cells"], freqs=p["middle_freqs"]
                ),
                "profile_n": p["profile_freqs"][int(rng.integers(len(p["profile_freqs"])))],
                "adjoint": packet(rng, dom, n_mid=p["adjoint_cells"]),
            }
        )
    return {
        "domain": dom,
        "rows": rows,
        "params": p,
        "resolvent_x": np.linspace(*p["resolvent_x"]),
        "kernel_lambda": np.linspace(*p["kernel_lambda"]),
        "profile_t": np.array(p["profile_t"]),
        "forward_grid": np.linspace(*p["forward_grid"]),
    }


def pass_orders(seed, n_calls):
    """Endless stream of seeded permutations of range(n_calls), one per pass."""
    rng = np.random.default_rng([seed, 3])
    while True:
        yield [int(i) for i in rng.permutation(n_calls)]
