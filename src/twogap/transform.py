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
The adjoint has this one route: it reconstructs V* V f for the source packet
f of a ``forward_transform`` sample, on the cells of f.

Only frequency-0 packets (plain steps) are supported; that is all the
cross-checks need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, _real_lambda, _require_coupled, classify_point, e2pi
from .eigen import eigen_coeffs
from .errors import ValidationError
from .evolution import COMPONENTS, _require_steps, decompose
from .packets import StepPacket, sum_packets
from .quadrature import _lattice_nodes, _lattice_sum2_rest, _lattice_sum_rest, fold_nodes

__all__ = [
    "TransformSample",
    "forward_transform",
    "adjoint_transform",
    "cross_term",
    "sigma_norm2",
]

# reconstruction points per cell of the adjoint transform
_SUBDIVIDE = 4

# most (rows x ends x nodes) elements in one block of a lattice-rest array:
# a block's temporaries then peak near 0.3 MB (6 x 6 ends, 277 nodes), where
# whole (ends x ends x nodes) arrays raise the process's peak memory by
# about 0.4 MB
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
    the expansion enumerates (u, +value, n) and (v, -value, n).
    """
    pos, val, freq = [], [], []
    for u, v, stack in packet.cells():
        for n, x in stack.items():
            pos.extend((u, v))
            val.extend((x, -x))
            freq.extend((n, n))
    return (
        np.asarray(pos, dtype=float),
        np.asarray(val, dtype=complex),
        np.asarray(freq, dtype=int),
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
    1/xi^2 poles cancel exactly); the k != 0 rest has no pole.  The rests
    are evaluated as (f ends x g ends x nodes) blocks of at most _BLOCK
    elements, their node-only factors once (``quadrature._lattice_nodes``),
    and each block is weighted and summed in place: O(f ends x g ends x
    nodes) arithmetic in O(f ends x g ends x nodes / _BLOCK) numpy calls.
    """
    _require_coupled(bm, "sigma pairing")
    _require_steps("sigma quadratures", f, g)
    f_parts = decompose(f, domain)
    g_parts = decompose(g, domain)
    fi, fpos, fval = _shifted_ends(domain, f_parts)
    gj, gpos, gval = _shifted_ends(domain, g_parts)
    y = (fpos[:, None] - gpos[None, :]) / domain.ell
    xi, wq, co, amp = _fold(bm, domain, y)

    lam = xi / domain.ell
    vf = _transform_values(co, f_parts, lam)
    vg = _transform_values(co, g_parts, lam)
    total = np.sum(wq * np.conj(vf) * vg / np.abs(co.a) ** 2) / domain.ell
    # k != 0: (f ends x g ends x nodes) blocks, each weighted and summed in place
    nodes = _lattice_nodes(xi)
    f_amp = np.conj(fval)[:, None] * wq * amp[fi]
    g_amp = gval[:, None] * np.conj(amp[gj])
    rest = 0.0
    for rows in _blocks(len(fpos), len(gpos) * len(xi)):
        y_b = y[rows, :, None]
        terms = e2pi(y_b * xi) * _lattice_sum2_rest(y_b, nodes)
        terms *= g_amp
        terms *= f_amp[rows, None, :]
        rest += terms.sum()
    return complex(total + domain.ell / (4.0 * np.pi**2) * rest)


def _blocks(rows, per_row):
    """Slices of range(rows), each of at most _BLOCK elements at ``per_row``
    elements a row (one row at least)."""
    step = max(1, _BLOCK // max(per_row, 1))
    return [slice(i, i + step) for i in range(0, rows, step)]


def sigma_norm2(bm: BoundaryMatrix, domain: ExteriorDomain, f: StepPacket) -> float:
    """Quadrature value of the sigma-weighted norm of V f (Parseval check)."""
    return float(np.real(cross_term(bm, domain, f, f)))


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

    with y = (x - r + b_d - b_j)/ell; the k = 0 terms of all ends together
    are the closed-form transform of f at lambda = xi/ell, one (points x
    nodes) product.  The rests go as (points x ends x nodes) blocks of at
    most _BLOCK elements, as in ``cross_term``: O(points x ends x nodes)
    arithmetic with no loop over points.
    """
    _require_coupled(bm, "adjoint_transform")
    f = sample.source
    if f is None:
        raise ValidationError("adjoint_transform needs a sample with its source packet")
    _require_steps("adjoint transform", f)
    # reconstruction points: subcell midpoints, one edge array per cell
    span_edges = [np.linspace(u, v, _SUBDIVIDE + 1) for u, v, _ in f.cells()]
    xs = np.concatenate([0.5 * (se[:-1] + se[1:]) for se in span_edges])
    dest = np.array([_component_index(domain, x) for x in xs])

    f_parts = decompose(f, domain)
    j, pos, val = _shifted_ends(domain, f_parts)
    x_b = xs + _offsets(domain)[dest]
    y = (x_b[:, None] - pos[None, :]) / domain.ell
    xi, wq, co, amp = _fold(bm, domain, y)

    lam = xi / domain.ell
    # k = 0: (V f) A_d m^-2 e(lambda x) = (V f) amp_d e(lambda (x + b_d)) / m
    gvals = wq * _transform_values(co, f_parts, lam) / (domain.ell * np.abs(co.a))
    d_amp = amp[dest]
    values = (d_amp * e2pi(x_b[:, None] * lam)) @ gvals
    # k != 0: (points x ends x nodes) blocks, each weighted and summed in place
    nodes = _lattice_nodes(xi)
    f_amp = val[:, None] * np.conj(amp[j])
    d_amp *= wq
    for rows in _blocks(len(xs), len(pos) * len(xi)):
        y_b = y[rows, :, None]
        terms = e2pi(y_b * xi) * _lattice_sum_rest(y_b, nodes)
        terms *= f_amp
        terms *= d_amp[rows, None, :]
        values[rows] += terms.sum(axis=(1, 2)) / (2j * np.pi)
    return sum_packets(
        StepPacket.from_breakpoints(se, v)
        for se, v in zip(span_edges, values.reshape(-1, _SUBDIVIDE))
    )


def _component_index(domain, x):
    """Index in COMPONENTS of the component holding a reconstruction point."""
    tag = classify_point(domain, float(x)).value
    if tag not in COMPONENTS:
        raise ValidationError(f"reconstruction point {x} is not in the domain")
    return COMPONENTS.index(tag)
