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
Both pairings are sums over pairs of cell ends, and ``_pair_rest`` sums
their squared lattice sum, less its double pole, over one flat list of
pairs: ``cross_term`` lists every pair (p, r), ``sigma_norm2`` only the
Hermitian half p <= r, since for g = f the (r, p) term is the conjugate of
the (p, r) term.
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
from .quadrature import _lattice_nodes, _lattice_sum2_rest, _node_sums, fold_nodes

__all__ = [
    "TransformSample",
    "forward_transform",
    "adjoint_transform",
    "cross_term",
    "sigma_norm2",
]

# reconstruction points per cell of the adjoint transform
_SUBDIVIDE = 4

# most (pairs x nodes) elements in one block of a squared lattice-rest
# array: a block's temporaries then peak near 0.3 MB, where whole (ends x
# ends x nodes) arrays (6 x 6 ends, 277 nodes) raise the process's peak
# memory by about 0.4 MB
_BLOCK = 1 << 11


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
    vals = _transform_values(co, decompose(f, domain), grid)
    return TransformSample(grid=grid, values=vals, source=f)


def _transform_values(co, parts, lam):
    """(V f)(lambda) from pre-split components and the eigen coefficients
    ``co`` at the points lambda."""
    fm, f0, fp = parts
    return (
        np.conj(co.a) * fm.transform(lam)
        + f0.transform(lam)
        + np.conj(co.c) * fp.transform(lam)
    )


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
    integrands carrying e(xi y) for every y in the array y; their weights, the
    eigen coefficients at lambda = xi/ell, and rows amp_i = A_i e(-b_i lambda)/m
    of period 1, so A_i conj(A_j) m^-2 = e((b_i - b_j) lambda) amp_i conj(amp_j).
    Each amp_i conj(amp_j) grows like one more phase off the real axis, hence
    the span max|y| + 1.
    """
    xi, wq = fold_nodes(bm, span=np.max(np.abs(y), initial=0.0) + 1.0)
    lam = xi / domain.ell
    co = eigen_coeffs(bm, domain, lam)
    m = np.abs(co.a)
    amp = np.array([co.a, np.ones_like(m), co.c]) * e2pi(-_offsets(domain)[:, None] * lam) / m
    return xi, wq, co, amp


def cross_term(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    g: StepPacket,
) -> complex:
    """The sigma-weighted pairing  int conj(Vf) Vg m^-2 d lambda.

    Equals <f, g> when the transform is the claimed isometry; computed here
    by a fold onto one period of the density, without referencing that
    claim.  Each pair of cell ends (p of f_i, r of g_j) adds

        (ell / 4 pi^2) int amp_i conj(amp_j) e(xi y) sum_k e(k y)/(k + xi)^2 d xi,

    y = (p - r + b_i - b_j)/ell.  The k = 0 terms of all pairs together are
    the closed-form integrand at lambda = xi/ell over ell (sinc form, so the
    1/xi^2 poles cancel exactly); the k != 0 rest has no pole and is summed
    by ``_pair_rest`` over the flat list of every (p, r) pair.
    """
    _require_coupled(bm, "sigma pairing")
    _require_steps("sigma quadratures", f, g)
    f_parts = decompose(f, domain)
    g_parts = decompose(g, domain)
    fi, fpos, fval = _shifted_ends(domain, f_parts)
    gj, gpos, gval = _shifted_ends(domain, g_parts)
    p, r = _end_pairs(len(fpos), len(gpos))
    y = (fpos[p] - gpos[r]) / domain.ell
    xi, wq, co, amp = _fold(bm, domain, y)

    lam = xi / domain.ell
    vf = _transform_values(co, f_parts, lam)
    vg = _transform_values(co, g_parts, lam)
    total = np.sum(wq * np.conj(vf) * vg / np.abs(co.a) ** 2) / domain.ell
    rest = _pair_rest(domain, xi, wq, amp, y, 3 * fi[p] + gj[r], np.conj(fval[p]) * gval[r])
    return complex(total + rest)


def sigma_norm2(bm: BoundaryMatrix, domain: ExteriorDomain, f: StepPacket) -> float:
    """Quadrature value of the sigma-weighted norm of V f (Parseval check).

    The pairing of ``cross_term`` with g = f, read over the Hermitian half of
    its end pairs: for real xi the lattice sum at -y is the conjugate of the
    one at y, and so is e(xi y), so the (r, p) term is the conjugate of the
    (p, r) term.  The pairs p <= r are summed, those off the diagonal
    weighted by 2, and the real part is kept; the k = 0 part is |V f|^2.
    """
    _require_coupled(bm, "sigma pairing")
    _require_steps("sigma quadratures", f)
    parts = decompose(f, domain)
    i, pos, val = _shifted_ends(domain, parts)
    p, r = _end_pairs(len(pos), len(pos))
    half = p <= r
    p, r = p[half], r[half]
    y = (pos[p] - pos[r]) / domain.ell
    xi, wq, co, amp = _fold(bm, domain, y)

    vf = _transform_values(co, parts, xi / domain.ell)
    total = np.sum(wq * np.abs(vf) ** 2 / np.abs(co.a) ** 2) / domain.ell
    coef = np.where(p == r, 1.0, 2.0) * np.conj(val[p]) * val[r]
    return float(total + _pair_rest(domain, xi, wq, amp, y, 3 * i[p] + i[r], coef).real)


def _pair_rest(domain, xi, wq, amp, y, comp, coef):
    """The k != 0 rest of the sigma pairing over a flat list of end pairs t:

        (ell / 4 pi^2) sum_t coef_t int amp_i conj(amp_j) e(xi y_t) S(y_t, xi) d xi

    on the fold nodes xi with weights wq (``_fold``), comp_t = 3 i + j naming
    the components of the pair and S = ``quadrature._lattice_sum2_rest``.
    The pairs go as (pairs x nodes) blocks of at most _BLOCK elements (one
    pair at least), their node-only factors once (``_lattice_nodes``), and
    each block is weighted and summed in place: O(pairs x nodes) arithmetic
    in O(pairs x nodes / _BLOCK) numpy calls.
    """
    nodes = _lattice_nodes(xi)
    # wq amp_i conj(amp_j), one row per component pair 3 i + j
    pair_amp = ((wq * amp)[:, None, :] * np.conj(amp)[None, :, :]).reshape(-1, len(xi))
    rest = 0j
    for t in _blocks(len(y), len(xi)):
        y_b = y[t, None]
        terms = e2pi(y_b * xi) * _lattice_sum2_rest(y_b, nodes)
        terms *= pair_amp[comp[t]]
        # a plain product and sum: a BLAS dot would page in library code
        rest += (coef[t] * terms.sum(axis=1)).sum()
    return domain.ell / (4.0 * np.pi**2) * rest


def _end_pairs(n_f, n_g):
    """(p, r) of every pair of n_f ends and n_g ends, p-major, as two index
    arrays.  Integer arithmetic: index-grid helpers (``np.triu_indices``)
    page in library code that a process otherwise never reads."""
    k = np.arange(n_f * n_g)
    return k // n_g, k % n_g


def _blocks(rows, per_row):
    """Slices of range(rows), each of at most _BLOCK elements at ``per_row``
    elements a row (one row at least)."""
    step = max(1, _BLOCK // max(per_row, 1))
    return [slice(i, i + step) for i in range(0, rows, step)]


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
    xi, wq, _, amp = _fold(bm, domain, y)
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
