"""Forward/adjoint spectral transform and sigma-weighted quadrature checks.

The forward transform pairs a packet with the generalized eigenfunctions:

    (V f)(lambda) = conj(a) f_minus^ + f_zero^ + conj(c) f_plus^ ,

an isometry onto L^2 of the density m^-2 d lambda.  The adjoint integrates
back against psi_lambda m^-2.  Both directions have closed forms on the
packet side; the quadrature versions here exist as *independent* checks and
read nothing of the packet engine's translation algebra or its series.  They
fold the whole line onto one period of the density (lambda = (xi + k)/ell,
summed over k in closed form by lattice sums) and integrate that period by
the mapped midpoint rule of ``quadrature.fold_nodes``, whose nodes cluster
at the density spike, O(1/w) of them: no window, no tails.
Both pairings are one sum over pairs of cell ends (``_pairing``), exact as
ramp sums over the Fourier coefficients of the folded weight: the squared
lattice sum of each pair, less a part that the four end pairs of each pair
of cells cancel, is a polynomial in e(xi).  ``sigma_norm2`` is the real
part of the pairing of f with itself.
The adjoint has this one route: it reconstructs V* V f for the source packet
f of a ``forward_transform`` sample, on the cells of f, in one sweep, from
the node sums of ``semigroup``'s space oracle (``quadrature._node_sums``).

Only frequency-0 packets (plain steps) are supported; that is all the
cross-checks need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, _real_lambda, _require_coupled, e2pi
from .eigen import eigen_coeffs
from .errors import ValidationError
from .evolution import COMPONENTS, _require_steps, decompose
from .packets import StepPacket, _sum_cells
from .quadrature import _node_sums, fold_nodes

__all__ = [
    "TransformSample",
    "forward_transform",
    "adjoint_transform",
    "cross_term",
    "sigma_norm2",
]

# reconstruction points per cell of the adjoint transform
_SUBDIVIDE = 4

# most elements in one row block of the sigma pairings' phase table e(n xi)
_PHASE_BLOCK = 1 << 16


@dataclass(frozen=True)
class TransformSample:
    """Transform values on a grid.

    ``forward_transform`` samples remember their source packet, which the
    adjoint re-evaluates in closed form at its own nodes; oracle samples
    (``semigroup_kernel_apply``) are bare numbers with no source.
    """

    grid: np.ndarray
    values: np.ndarray
    source: StepPacket | None = None


def forward_transform(
    bm: BoundaryMatrix, domain: ExteriorDomain, f: StepPacket, grid
) -> TransformSample:
    """Sample (V f)(lambda) on a real grid (closed form, exact per cell)."""
    _require_coupled(bm, "forward_transform")
    grid = np.atleast_1d(_real_lambda(grid))
    co = eigen_coeffs(bm, domain, grid)
    fm, f0, fp = decompose(f, domain)
    vals = np.conj(co.a) * fm.transform(grid) + f0.transform(grid) + np.conj(co.c) * fp.transform(grid)
    return TransformSample(grid=grid, values=vals, source=f)


def _cell_ends(packet):
    """(position, signed value, frequency) of every cell end, as arrays.

    A cell (u, v) carrying value * e(n x) transforms to
    value (e((n - lambda) u) - e((n - lambda) v)) / (i 2 pi (lambda - n));
    the expansion enumerates (u, +value, n) and (v, -value, n), cell by
    cell, frequencies ascending, for every nonzero value.
    """
    freqs = np.array(list(packet.waves), dtype=int)
    table = np.array(list(packet.waves.values()), dtype=complex).reshape(len(freqs), packet.n_cells)
    cell, k = np.nonzero(table.T)
    x = table[k, cell]
    return (
        np.stack([packet.lo[cell], packet.hi[cell]], axis=1).ravel(),
        np.stack([x, -x], axis=1).ravel(),
        np.repeat(freqs[k], 2),
    )


def _offsets(domain):
    """b in COMPONENTS order: A = (a, 1, c) is e(b lambda) times a function
    of period 1/ell."""
    return np.array([1.0, 0.0, -domain.gap])


def _shifted_ends(domain, parts):
    """Component index, position + b and signed value of every cell end of
    the component parts, as flat arrays."""
    ends = [_cell_ends(part)[:2] for part in parts]
    return (
        np.concatenate([np.full(len(pos), k) for k, (pos, _) in enumerate(ends)]),
        np.concatenate([pos + b for (pos, _), b in zip(ends, _offsets(domain))]),
        np.concatenate([val for _, val in ends]),
    )


def _fold(bm, domain, y):
    """``fold_nodes`` xi on (-1/2, 1/2], none at the pole xi = 0, for
    integrands carrying a phase e(s xi) with |s| <= max|y| for the array y:
    e(xi y) in the adjoint, e(n xi) in the pairings' ramp sums, whose n run
    from 1 to floor(y) (from floor(y) + 1 to 0 when y < 0); their weights
    and rows amp_i = A_i e(-b_i lambda)/m of period 1, lambda = xi/ell, so
    A_i conj(A_j) m^-2 = e((b_i - b_j) lambda) amp_i conj(amp_j).  Each
    amp_i conj(amp_j) grows like one more phase off the real axis, hence
    the span max|y| + 1.
    """
    xi, wq = fold_nodes(bm, span=np.max(np.abs(y), initial=0.0) + 1.0)
    lam = xi / domain.ell
    co = eigen_coeffs(bm, domain, lam)
    m = np.abs(co.a)
    amp = np.array([co.a, np.ones_like(m), co.c]) * e2pi(-_offsets(domain)[:, None] * lam) / m
    return xi, wq, amp


def cross_term(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    g: StepPacket,
) -> complex:
    """The sigma-weighted pairing  int conj(Vf) Vg m^-2 d lambda.

    Equals <f, g> when the transform is the claimed isometry; computed here
    by a fold onto one period of the density (``_pairing``), without
    referencing that claim.
    """
    _require_coupled(bm, "sigma pairing")
    _require_steps("sigma quadratures", f, g)
    return _pairing(
        bm, domain, _shifted_ends(domain, decompose(f, domain)), _shifted_ends(domain, decompose(g, domain))
    )


def sigma_norm2(bm: BoundaryMatrix, domain: ExteriorDomain, f: StepPacket) -> float:
    """Quadrature value of the sigma-weighted norm of V f (Parseval check):
    the real part of the pairing of ``cross_term`` with g = f."""
    _require_coupled(bm, "sigma pairing")
    _require_steps("sigma quadratures", f)
    ends = _shifted_ends(domain, decompose(f, domain))
    return _pairing(bm, domain, ends, ends).real


def _pairing(bm, domain, f_ends, g_ends):
    """The sigma pairing of f and g from the ``_shifted_ends`` of their
    component parts (the two ends of a cell adjacent, lower first), as a sum
    of ramps over the Fourier coefficients of the folded weight.

    Each pair t of cell ends (p of f_i, r of g_j), c_t = conj(v_p) v_r, adds

        (ell / 4 pi^2) c_t int amp_i conj(amp_j) e(xi y) sum_k e(k y)/(k + xi)^2 d xi,

    y = (p - r + b_i - b_j)/ell.  With G_K = pi e(xi (K + 1/2))/sin(pi xi),
    the lattice sum times e(xi y) is 2 pi i y G_K - G_K' for K = floor(y).
    The four end pairs of one pair of cells have sum c_t = sum c_t y_t = 0,
    so a G_a common to them adds to nothing.  With a the least of their K,
    G_K - G_a = 2 pi i sum_{n=a+1..K} e(n xi) has no pole, each integrand
    is 4 pi^2 amp_i conj(amp_j) sum_{n=a+1..K} (n - y) e(n xi), and the
    pairing is

        ell sum_t c_t [S1_a(K_t - a) - (y_t - a) S0_a(K_t - a)]

    for the window sums S0_a(d) and S1_a(d) of M_ij(a + m) and m M_ij(a + m)
    over m = 1 ... d, M_ij(n) = sum_xi wq amp_i conj(amp_j) e(n xi) on the
    fold nodes (``_fold``).  Anchored at its own cell pair, a ramp is of the
    order of the cells' lengths squared, not of their distance squared, so
    the sum over pairs cancels no large terms.  The phase table e(n xi) has
    a row for each distinct n the windows read, and one matrix-vector
    product per component pair that occurs turns it into M: O(distinct n x
    nodes + pairs) in all, in row blocks of at most _PHASE_BLOCK elements,
    so a long lattice span costs time, not memory.
    """
    fi, fpos, fval = f_ends
    gj, gpos, gval = g_ends
    y = (fpos[:, None] - gpos) / domain.ell
    # floor(y) stays float: np.unique of an int array pages in numpy's
    # integer sort code, about 0.25 MB of resident memory
    lattice = np.floor(y)
    xi, wq, amp = _fold(bm, domain, y)
    # the anchor a of each end pair: the least floor(y) of its cell pair
    cells = lattice.reshape(len(fpos) // 2, 2, len(gpos) // 2, 2)
    anchor = np.repeat(np.repeat(cells.min(axis=(1, 3)), 2, axis=0), 2, axis=1)
    starts, at = np.unique(anchor.ravel(), return_inverse=True)
    depth = (lattice - anchor).astype(int)
    steps = np.arange(1, np.max(depth, initial=0) + 1)
    ns, where = np.unique((starts[:, None] + steps).ravel(), return_inverse=True)
    weights = (wq * amp)[:, None, :] * np.conj(amp)
    coeffs = np.zeros(weights.shape[:2] + ns.shape, dtype=complex)
    occurring = [(i, j) for i in set(fi.tolist()) for j in set(gj.tolist())]
    block = max(1, _PHASE_BLOCK // len(xi))
    for rows in range(0, len(ns), block):
        phases = e2pi(np.outer(ns[rows : rows + block], xi))
        for i, j in occurring:
            coeffs[i, j, rows : rows + block] = phases @ weights[i, j]
    # sums of M(a + m) and m M(a + m) over m = 1 ... d, for each anchor a
    window = coeffs[..., where.reshape(len(starts), len(steps))]
    s0 = np.zeros(window.shape[:-1] + (len(steps) + 1,), dtype=complex)
    s1 = np.zeros_like(s0)
    np.cumsum(window, axis=-1, out=s0[..., 1:])
    np.cumsum(steps * window, axis=-1, out=s1[..., 1:])
    pick = fi[:, None], gj, at.reshape(anchor.shape), depth
    ramps = s1[pick] - (y - anchor) * s0[pick]
    return complex(domain.ell * np.sum(np.conj(fval)[:, None] * gval * ramps))


def adjoint_transform(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    sample: TransformSample,
) -> StepPacket:
    """Reconstruct a packet from its transform: V* V f as a step packet.

    f is the sample's source packet (frequency 0 only); a sample without a
    source is a ValidationError.  V* V f is evaluated at the midpoints of the
    ``_SUBDIVIDE`` subcells of each cell of f (the gaps between the cells may
    cover the removed intervals, so they are skipped), by the one-period fold
    of ``cross_term``: a point x of component d and a cell end (r, t_r) of
    f_j add

        (t_r / 2 pi i) int amp_d conj(amp_j) e(xi y) sum_k e(k y)/(k + xi) d xi

    with y = (x - r + b_d - b_j)/ell, that is (t_r / 2 pi i) (S1 + i pi
    S0)(floor(y)) for the node sums of ``quadrature._node_sums`` with weights
    wq amp_d conj(amp_j), formed once per component pair (d, j) that occurs:
    O(floor(y) count x nodes + points x ends).  The subcells of all cells,
    with their values, go through one sweep (``packets._sum_cells``).
    """
    _require_coupled(bm, "adjoint_transform")
    f = sample.source
    if f is None:
        raise ValidationError("adjoint_transform needs a sample with its source packet")
    _require_steps("adjoint transform", f)
    # reconstruction points: subcell midpoints, one row of edges per cell
    edges = np.linspace(f.lo, f.hi, _SUBDIVIDE + 1, axis=1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    xs = 0.5 * (lo + hi)
    dest = _component_indices(domain, xs)

    comp, pos, val = _shifted_ends(domain, decompose(f, domain))
    y = ((xs + _offsets(domain)[dest])[:, None] - pos) / domain.ell
    xi, wq, amp = _fold(bm, domain, y)
    values = np.zeros(len(xs), dtype=complex)
    for d in range(len(COMPONENTS)):
        rows = np.flatnonzero(dest == d)
        for j in range(len(COMPONENTS)):
            ends = np.flatnonzero(comp == j)
            if len(rows) and len(ends):
                lattice, at = np.unique(np.floor(y[rows[:, None], ends]), return_inverse=True)
                s0, s1 = _node_sums(xi, wq * amp[d] * np.conj(amp[j]), lattice).T
                g = (s1 + 1j * np.pi * s0)[at.reshape(len(rows), len(ends))]
                values[rows] += g @ val[ends]
    values /= 2j * np.pi
    return StepPacket(*_sum_cells([(lo, hi, {0: values})]), _trusted=True)


def _component_indices(domain, xs):
    """Index in COMPONENTS of the component holding each reconstruction
    point; ValidationError for a point on an obstacle or its boundary."""
    ends = np.array([0.0, 1.0, domain.alpha, domain.beta])
    above = np.sum(xs[:, None] > ends, axis=1)
    off = (above % 2 == 1) | np.any(xs[:, None] == ends, axis=1)
    if np.any(off):
        raise ValidationError(f"reconstruction point {xs[off][0]} is not in the domain")
    return above // 2
