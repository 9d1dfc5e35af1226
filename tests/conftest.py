import numpy as np
import pytest

from twogap.domain import make_boundary_matrix, make_domain
from twogap.packets import StepPacket

# random couplings stay inside [0.3, 0.95]: the whole series of the t = inf
# pictures (scattering, the translation representations), cut at 1e-12,
# grow like log(1e-12)/log(q) terms as w -> 0, and w -> 1 collapses q -> 0
# making the draw uninformative
W_RANGE = (0.3, 0.95)


@pytest.fixture(scope="session")
def ex59():
    """The worked half-coupling example: unit lattice, no phases."""
    dom = make_domain(2.0, 3.0)
    bm = make_boundary_matrix(w=np.sqrt(3.0) / 2.0, theta=0.0, phi=0.0, psi=0.0)
    return bm, dom


@pytest.fixture(scope="session")
def ex59_packet():
    return StepPacket.box(-0.5, 0.0, 1.0)


@pytest.fixture(scope="session")
def generic():
    """A coupling with all four parameters switched on."""
    dom = make_domain(2.25, 3.75)
    bm = make_boundary_matrix(w=0.7, theta=0.15, phi=0.3, psi=0.45)
    return bm, dom


def random_boundary(rng):
    return make_boundary_matrix(
        w=rng.uniform(*W_RANGE),
        theta=rng.uniform(0.0, 1.0),
        phi=rng.uniform(0.0, 1.0),
        psi=rng.uniform(0.0, 1.0),
    )


def random_geometry(rng):
    alpha = rng.uniform(1.2, 3.0)
    return make_domain(alpha, alpha + rng.uniform(0.3, 2.0))


def random_packet(rng, lo=-3.0, hi=-0.1, n_cells=3, freqs=(0,)):
    """A packet of random boxes inside (lo, hi)."""
    parts = []
    for _ in range(n_cells):
        a, b = np.sort(rng.uniform(lo, hi, size=2))
        if b - a < 1e-3:
            b = a + 1e-3
        val = complex(rng.normal(), rng.normal())
        parts.append(StepPacket.box(a, b, val, freq=int(rng.choice(freqs))))
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out
