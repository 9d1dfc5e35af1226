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
Both directions read window sums of the Fourier coefficients of the folded
weight (``quadrature._fold_windows``), on which the pole of each cell's
lattice sum cancels.  Both pairings are one sum of ramps over pairs of cell
ends (``_pairing``); ``sigma_norm2`` is the real part of the pairing of f
with itself.  The adjoint has this one route: it reconstructs V* V f for
the source packet f of a ``forward_transform`` sample, on the cells of f,
in one sweep, one window per (point, cell).

Only frequency-0 packets (plain steps) are supported; that is all the
cross-checks need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, _real_lambda, _require_coupled, e2pi
from .eigen import eigen_coeffs
from .errors import ValidationError
from .evolution import _require_steps, decompose
from .packets import StepPacket, _sum_cells
from .quadrature import _fold_windows, fold_nodes

__all__ = [
    "TransformSample",
    "forward_transform",
    "adjoint_transform",
    "cross_term",
    "sigma_norm2",
]

# reconstruction points per cell of the adjoint transform
_SUBDIVIDE = 4


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
    """``fold_nodes`` xi on (-1/2, 1/2], none at the pole xi = 0, for the
    phases e(n xi) of window sums whose n lie between floor(y) and the
    anchor, |n| <= max|y| for the array y, and the weight rows wq amp_i
    conj(amp_j) in row 3 i + j: amp_i = A_i e(-b_i lambda)/m has period 1,
    lambda = xi/ell, and A_i conj(A_j) m^-2 = e((b_i - b_j) lambda) amp_i
    conj(amp_j).  Each amp_i conj(amp_j) grows like one more phase off the
    real axis, hence the span max|y| + 1.
    """
    xi, wq = fold_nodes(bm, span=np.max(np.abs(y), initial=0.0) + 1.0)
    lam = xi / domain.ell
    co = eigen_coeffs(bm, domain, lam)
    m = np.abs(co.a)
    amp = np.array([co.a, np.ones_like(m), co.c]) * e2pi(-_offsets(domain)[:, None] * lam) / m
    return xi, ((wq * amp)[:, None, :] * np.conj(amp)).reshape(9, len(xi))


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
    component parts (the two ends of a cell adjacent, lower first).

    Each pair t of cell ends (p of f_i, r of g_j), c_t = conj(v_p) v_r, adds

        (ell / 4 pi^2) c_t int amp_i conj(amp_j) e(xi y) sum_k e(k y)/(k + xi)^2 d xi,

    y_t = (p - r + b_i - b_j)/ell.  The four end pairs of one pair of cells
    have sum c_t = sum c_t y_t = 0, so a part common to them adds nothing,
    and with a the least of their floor(y) the pairing is the sum of ramps
    ell sum_t c_t (S1 - (y_t - a) S0) over the windows of depth floor(y_t)
    - a (``quadrature._fold_windows``, weights of ``_fold``).  Anchored at
    its own cell pair, a ramp is of the order of the cells' lengths squared,
    not of their distance squared, so the sum cancels no large terms.
    """
    fi, fpos, fval = f_ends
    gj, gpos, gval = g_ends
    y = (fpos[:, None] - gpos) / domain.ell
    # floor(y) stays float: np.unique of an int array pages in numpy's
    # integer sort code, about 0.25 MB of resident memory
    lattice = np.floor(y)
    xi, weights = _fold(bm, domain, y)
    # the anchor a of each end pair: the least floor(y) of its cell pair
    cells = lattice.reshape(len(fpos) // 2, 2, len(gpos) // 2, 2)
    anchor = np.repeat(np.repeat(cells.min(axis=(1, 3)), 2, axis=0), 2, axis=1)
    rows = 3 * fi[:, None] + gj
    s0, s1 = _fold_windows(xi, weights, rows, anchor, (lattice - anchor).astype(int))
    ramps = s1 - (y - anchor) * s0
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

    with y = (x - r + b_d - b_j)/ell.  As floor(y_lo) >= floor(y_hi), a cell
    (value v) adds v S0 over the window floor(y_hi) < n <= floor(y_lo) of
    ``_fold``'s weight row 3 d + j (``quadrature._fold_windows``), in one
    call for all (point, cell) pairs.  The subcells of all cells, with their
    values, go through one sweep (``packets._sum_cells``).
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
    xi, weights = _fold(bm, domain, y)
    upper, lower = np.floor(y[:, 0::2]), np.floor(y[:, 1::2])
    rows = 3 * dest[:, None] + comp[0::2]
    s0, _ = _fold_windows(xi, weights, rows, lower, (upper - lower).astype(int))
    return StepPacket(*_sum_cells([(lo, hi, {0: s0 @ val[0::2]})]), _trusted=True)


def _component_indices(domain, xs):
    """Index in COMPONENTS of the component holding each reconstruction
    point; ValidationError for a point on an obstacle or its boundary."""
    ends = np.array([0.0, 1.0, domain.alpha, domain.beta])
    above = np.sum(xs[:, None] > ends, axis=1)
    off = (above % 2 == 1) | np.any(xs[:, None] == ends, axis=1)
    if np.any(off):
        raise ValidationError(f"reconstruction point {xs[off][0]} is not in the domain")
    return above // 2
