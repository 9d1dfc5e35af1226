"""Forward/adjoint spectral transform and sigma-weighted quadrature checks.

The forward transform pairs a packet with the generalized eigenfunctions:

    (V f)(lambda) = conj(a) f_minus^ + f_zero^ + conj(c) f_plus^ ,

an isometry onto L^2 of the density m^-2 d lambda.  The adjoint integrates
back against psi_lambda m^-2.  Both directions have closed forms on the
packet side; the quadrature versions here exist as *independent* checks and
therefore never reuse the packet engine's translation algebra — they
integrate a window [-L, L] by composite Gauss-Legendre panels and add the
|lambda| > L remainder in closed form through sine/cosine integrals (the
integrands decay like 1/lambda or 1/lambda^2, so bare windows could never
reach the advertised tolerances).

Only frequency-0 packets (plain steps) are supported by the tail expansion;
that is all the cross-checks need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, classify_point, e2pi
from .eigen import eigen_coeffs
from .errors import (
    DegenerateRegime,
    GridTooCoarse,
    ValidationError,
)
from .evolution import COMPONENTS, _require_steps, decompose
from .multipliers import block_multiplier
from .packets import StepPacket
from .quadrature import (
    _panel_nodes,
    gauss_panels,
    tail_inv1_twosided,
    tail_inv2_twosided,
)
from .spectral import SpectralDensity

__all__ = [
    "TransformSample",
    "forward_transform",
    "adjoint_transform",
    "cross_term",
    "sigma_norm2",
    "SIGMA_WINDOW",
]

# Window half-width / panel width / Gauss order for the sigma quadratures.
SIGMA_WINDOW = 64.0
_PANEL = 0.125
_ORDER = 24
_SERIES_EPS = 1e-14
# reconstruction points per cell of the adjoint transform
_SUBDIVIDE = 4


def _panel_width(bm: BoundaryMatrix, domain: ExteriorDomain) -> float:
    """Panel width that resolves the density's near-comb spikes.

    m^-2 has complex poles at distance |ln q| / (2 pi ell) from the real
    axis; Gauss panels wider than a few pole distances lose the spikes
    silently as w -> 0, so the width shrinks with q.
    """
    q = bm.q
    if q == 0.0:
        return _PANEL
    delta = abs(np.log(q)) / (2.0 * np.pi * domain.ell)
    return float(min(_PANEL, 3.0 * delta))


def _window_edges(bm, domain):
    """Uniform panel edges over [-SIGMA_WINDOW, SIGMA_WINDOW] at ``_panel_width``."""
    n_panels = int(np.ceil(2.0 * SIGMA_WINDOW / _panel_width(bm, domain)))
    return np.linspace(-SIGMA_WINDOW, SIGMA_WINDOW, n_panels + 1)


@dataclass(frozen=True)
class TransformSample:
    """Transform values on a grid, tagged with how they were obtained.

    provenance 'analytic' samples remember their source packet so closed-form
    tail corrections stay available downstream; 'quadrature' samples are bare
    numbers.
    """

    grid: np.ndarray
    values: np.ndarray
    provenance: str
    bm: BoundaryMatrix | None = None
    domain: ExteriorDomain | None = None
    source: StepPacket | None = None


def forward_transform(
    bm: BoundaryMatrix, domain: ExteriorDomain, f: StepPacket, grid
) -> TransformSample:
    """Sample (V f)(lambda) on a real grid (closed form, exact per cell)."""
    if bm.w == 0.0:
        raise DegenerateRegime("forward transform needs w > 0")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    co = eigen_coeffs(bm, domain, grid)
    vals = _transform_values(co, decompose(f, domain), grid)
    return TransformSample(
        grid=grid, values=vals, provenance="analytic", bm=bm, domain=domain, source=f
    )


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


def cross_term(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    g: StepPacket,
) -> complex:
    """The sigma-weighted pairing  int conj(Vf) Vg m^-2 d lambda.

    Equals <f, g> when the transform is the claimed isometry; computed here
    by window quadrature plus closed-form 1/lambda^2 tails so the result is
    trustworthy at the 1e-9 level without referencing that claim.
    """
    if bm.w == 0.0:
        raise DegenerateRegime("sigma pairing needs w > 0")
    _require_steps("sigma quadratures", f, g)
    f_parts = decompose(f, domain)
    g_parts = decompose(g, domain)

    def integrand(lam):
        co = eigen_coeffs(bm, domain, lam)
        vf = _transform_values(co, f_parts, lam)
        vg = _transform_values(co, g_parts, lam)
        return np.conj(vf) * vg / np.abs(co.a) ** 2

    total = gauss_panels(integrand, _window_edges(bm, domain), _ORDER)

    # Tails: conj(Vf) Vg m^-2 = sum_{ij} M_block(i,j) conj(F_i) G_j, each term
    # a lattice of e(Delta lambda)/(4 pi^2 lambda^2) contributions.
    for i, fi in zip(COMPONENTS, f_parts):
        if fi.is_empty:
            continue
        fpos, fval, _ = _cell_ends(fi)
        for j, gj in zip(COMPONENTS, g_parts):
            if gj.is_empty:
                continue
            gpos, gval, _ = _cell_ends(gj)
            shifts, weights = block_multiplier(bm, domain, i, j, eps=_SERIES_EPS).terms()
            # Delta = (f end) - (g end) + shift, coefficient conj(fval) gval w
            delta = fpos[:, None, None] - gpos[None, :, None] + shifts[None, None, :]
            coef = np.conj(fval)[:, None, None] * gval[None, :, None] * weights[None, None, :]
            total += np.sum(coef * tail_inv2_twosided(delta, SIGMA_WINDOW)) / (
                4.0 * np.pi**2
            )
    return complex(total)


def sigma_norm2(bm: BoundaryMatrix, domain: ExteriorDomain, f: StepPacket) -> float:
    """Quadrature value of the sigma-weighted norm of V f (Parseval check)."""
    return float(np.real(cross_term(bm, domain, f, f)))


def adjoint_transform(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    sample: TransformSample,
    cell_edges=None,
    tol: float = 1e-4,
) -> StepPacket:
    """Reconstruct a packet from transform data: V* g as a step packet.

    The reconstruction integrates g(lambda) psi_lambda(x) m^-2 and returns a
    step packet on ``cell_edges``, each cell split into ``_SUBDIVIDE``
    subcells valued at their midpoints.

    * analytic samples: g is re-evaluated in closed form on quadrature nodes
      and the |lambda| > SIGMA_WINDOW remainder is added exactly (sine-integral
      tails), so the advertised tolerance is honored; the default cells are
      the source packet's own (gaps between source cells are skipped, since
      they may cover the removed intervals).
    * quadrature samples: only the given grid values exist.  The integral is
      a composite Simpson over the grid and the unknown tail is estimated
      from the last samples; if that estimate exceeds tol, GridTooCoarse.
    """
    if bm.w == 0.0:
        raise DegenerateRegime("adjoint transform needs w > 0")

    if sample.provenance == "analytic":
        if sample.source is None:
            raise ValidationError("analytic sample has no source packet")
        if cell_edges is None:
            intervals = [(u, v) for u, v, _ in sample.source.cells()]
        else:
            cell_edges = np.asarray(cell_edges, dtype=float)
            if np.any(np.diff(cell_edges) <= 0):
                raise ValidationError("cell_edges must be increasing")
            intervals = list(zip(cell_edges[:-1], cell_edges[1:]))
        return _adjoint_analytic(bm, domain, sample.source, intervals)
    if sample.provenance != "quadrature":
        raise ValidationError(f"unknown provenance {sample.provenance!r}")
    if cell_edges is None:
        raise ValidationError("quadrature samples need explicit cell_edges")
    return _adjoint_from_grid(bm, domain, sample, np.asarray(cell_edges, float), tol)


def _component_factors(co):
    """psi_lambda(x) m^-2 / e(lambda x) = (a, 1, c) m^-2, keyed by the
    component tag of x."""
    m2 = np.abs(co.a) ** 2
    return dict(zip(COMPONENTS, (co.a / m2, np.ones_like(co.a) / m2, co.c / m2)))


def _component_of(domain, x):
    """Component tag of a reconstruction point."""
    tag = classify_point(domain, float(x)).value
    if tag not in COMPONENTS:
        raise ValidationError(f"reconstruction point {x} is not in the domain")
    return tag


def _adjoint_analytic(bm, domain, f, intervals):
    f_parts = decompose(f, domain)

    # window quadrature nodes/values shared across evaluation points
    lam, lamw = _panel_nodes(_window_edges(bm, domain), _ORDER)
    co = eigen_coeffs(bm, domain, lam)
    gvals = _transform_values(co, f_parts, lam)
    factors = _component_factors(co)

    # per-source tail data
    tail_data = []
    for j, fj in zip(COMPONENTS, f_parts):
        if fj.is_empty:
            continue
        pos, val, _ = _cell_ends(fj)
        tail_data.append((j, pos, val))

    # evaluation points: subcell midpoints, one edge array per span
    span_edges = [np.linspace(a, b, _SUBDIVIDE + 1) for a, b in intervals]
    xs = np.concatenate([0.5 * (se[:-1] + se[1:]) for se in span_edges])

    values = np.empty(xs.shape, dtype=complex)
    for idx, x in enumerate(xs):
        dest = _component_of(domain, x)
        win = np.sum(lamw * gvals * factors[dest] * e2pi(lam * x))
        tail = 0.0 + 0.0j
        for j, pos, val in tail_data:
            shifts, weights = block_multiplier(bm, domain, dest, j, eps=_SERIES_EPS).terms()
            delta = x - pos[:, None] + shifts[None, :]
            coef = val[:, None] * weights[None, :]
            tail += np.sum(coef * tail_inv1_twosided(delta, SIGMA_WINDOW)) / (2j * np.pi)
        values[idx] = win + tail

    out = StepPacket.zero()
    pos = 0
    for se in span_edges:
        out = out + StepPacket.from_breakpoints(se, values[pos : pos + len(se) - 1])
        pos += len(se) - 1
    return out


def _adjoint_from_grid(bm, domain, sample, cell_edges, tol):
    grid = np.asarray(sample.grid, dtype=float)
    vals = np.asarray(sample.values, dtype=complex)
    if grid.ndim != 1 or grid.shape != vals.shape or len(grid) < 3:
        raise ValidationError("need a 1-d grid with at least 3 samples")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be increasing")

    # Heuristic tail estimate: |g| ~ C/|lambda| beyond the window implies a
    # conditionally convergent remainder of order C (up to oscillation); we
    # charge one decade of it.
    c_end = max(abs(vals[0]) * abs(grid[0]), abs(vals[-1]) * abs(grid[-1]))
    rho_max = SpectralDensity(bm, domain).bounds()[1]
    coef_max = 2.0 / bm.w  # sup of |a| = |c|
    est = c_end * rho_max * coef_max * np.log(10.0)
    if est > tol:
        raise GridTooCoarse(
            f"estimated truncation {est:.2e} exceeds tol {tol:.2e}; widen or "
            "refine the transform grid (or use an analytic sample)"
        )

    if np.any(np.diff(cell_edges) <= 0):
        raise ValidationError("cell_edges must be increasing")
    sub_edges = []
    for a, b in zip(cell_edges[:-1], cell_edges[1:]):
        sub_edges.append(np.linspace(a, b, _SUBDIVIDE + 1)[:-1])
    sub_edges = np.concatenate(sub_edges + [cell_edges[-1:]])
    xs = 0.5 * (sub_edges[:-1] + sub_edges[1:])

    factors = _component_factors(eigen_coeffs(bm, domain, grid))
    values = np.empty(xs.shape, dtype=complex)
    for idx, x in enumerate(xs):
        integ = vals * factors[_component_of(domain, x)] * e2pi(grid * x)
        values[idx] = _simpson_irregular(grid, integ)
    return StepPacket.from_breakpoints(sub_edges, values)


def _simpson_irregular(x, y):
    """Composite Simpson on (possibly) irregular grids of at least 3 points;
    an even point count ends with one trapezoid."""
    n = len(x)
    total = 0.0 + 0.0j
    i = 0
    while i + 2 < n:
        h0 = x[i + 1] - x[i]
        h1 = x[i + 2] - x[i + 1]
        # standard 3-point Newton-Cotes weights for uneven spacing
        h = h0 + h1
        total += (
            y[i] * (h * (2.0 * h0 - h1)) / (6.0 * h0)
            + y[i + 1] * h**3 / (6.0 * h0 * h1)
            + y[i + 2] * (h * (2.0 * h1 - h0)) / (6.0 * h1)
        )
        i += 2
    if i + 1 < n:
        total += 0.5 * (y[i] + y[i + 1]) * (x[i + 1] - x[i])
    return total
