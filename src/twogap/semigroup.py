"""Compressed evolution on the middle interval and its kernel/resolvent
identities.

Compressing the unitary evolution to the middle interval gives a one-
parameter contraction semigroup Z(t), t >= 0, with Z(ell) = q e(-psi) I:
content that reaches alpha re-enters at 1 scaled by z = q e(-psi) on each
pass, the damped wrap ``evolution._wrap_middle``, exact and series-free, for
a whole time grid with no sweep (``compress_evolve_many``).  On
the transform side the same operator is an integral kernel against the
band-limited (Shannon) sampling kernel of the interval, weighted by the
spectral density — evaluated here by an independent folded
quadrature: the line integral is reduced to one period of the density via
the closed-form lattice sums

    sum_j e(j y)/(j + a) = (pi/sin(pi a)) exp(i pi a (1 - 2 {y})),

with the two halves of each cell combined so every endpoint singularity
cancels analytically.  The folded period is integrated by the mapped
midpoint rule of ``quadrature.fold_nodes``, whose O(1/w) nodes cluster at the
density spike and are sized from q and t so the quadrature error stays near
1e-13 however sharp the spike.  The oracles take packets on the unit
middle interval (1, 2), where the density has unit period.

The folded integrands separate.  For a cell end at p, sin(pi(xi - n)) =
(-1)^n sin(pi xi) and the phase e(xi y) of the lattice sum leaves only
e(xi floor(y)) on the nodes, and the two ends of a cell cancel the pole at
xi = 0, so both oracles read the Fourier coefficients M(K) = sum_j W_j
e(xi_j K) (W_j the weights times the density) of one table,
``quadrature._fold_coefficients``, once per distinct lattice integer
K = floor(y), and everything else per point or per lambda: the space oracle
costs O(K count x nodes + points x cells), the kernel oracle O(nodes + ends
x lambdas).  Nothing in the oracles touches the packet engine.

The module also carries three resolvent routes on x in [1, alpha], each
exact through the one per-cell Laplace integral ``_cell_laplace``: the plain
shift generator's (no coupling), the density row over the causal horizon,
and its z/(1 - z) resummation.  ``_cell_laplace`` reads one antiderivative
F(y) = int_{-inf}^y e^{lam (s - r)} f(s) ds, a prefix sum of the per-cell
closed form plus the partial cell at y, so every x costs two lookups:
e^{-lam (x - r)} (F(b) - F(a)) for its limits a <= b.  The anchor r is the
largest upper limit b of a band of points no wider than 30 / Re lam, so
no exponential overflows; one band covers every route unless Re lam times
the spread of b exceeds 30.  The cost is O((points + cells) x frequencies)
per band, against O(points x cells x frequencies) pair by pair.  Every
route integrates the past of x: each limit b used lies at or below x.
A non-finite time is a ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, _real_lambda, _require_coupled, e2pi, make_domain
from .batch import merge_batch
from .errors import HalfPlaneViolation, NegativeTime, ValidationError
from .eigen import eigen_coeffs
from .evolution import EvolutionResult, _finite_time, _partition, _require_kept, _wrap_middle, block_row
from .packets import StepPacket
from .quadrature import _fold_coefficients, fold_nodes
from .spectral import density
from .transform import TransformSample, _cell_ends

__all__ = [
    "compress_evolve",
    "compress_evolve_many",
    "semigroup_kernel_apply",
    "norm_decay_profile",
    "NormDecayProfile",
    "spatial_resolvent",
    "SampledProfile",
    "compressed_resolvent_profile",
    "resolvent_comparison",
    "parseval_bound_check",
]


# the unit middle interval (1, 2): ell = 1, so the density has unit period
_UNIT_DOMAIN = make_domain(2.0, 3.0)


def _require_on(f: StepPacket, lo: float, hi: float, what: str) -> StepPacket:
    """f restricted to (lo, hi); SupportViolation if f carries mass outside
    (the leak rule of ``evolution._require_kept``)."""
    left, inside, right = _partition(f, (lo, hi))
    _require_kept(f, (left, right), what, f"({lo:g}, {hi:g})")
    return inside


def compress_evolve_many(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    ts,
) -> list[EvolutionResult]:
    """Z(t) f for f on the middle interval and each t >= 0 of ``ts``, in
    input order: the damped wrap (z = ``bm.b_entry`` per pass) of the whole
    grid, its pieces merged with no sweep, exact, with no truncation.
    f's leak off the interval is checked once per grid; any t < 0 raises
    NegativeTime and an empty ``ts`` ValidationError."""
    ts = [_finite_time(t) for t in ts]
    if not ts:
        raise ValidationError("compress_evolve_many needs at least one time")
    _require_coupled(bm, "compress_evolve")
    if min(ts) < 0:
        raise NegativeTime(f"compressed semigroup needs t >= 0, got {min(ts)}")
    f0 = _require_on(f, *domain.component("izero"), "compress_evolve input")
    moved = merge_batch(_wrap_middle(bm, domain, f0, ts)).packets()
    return [EvolutionResult(packet=g, t=t) for g, t in zip(moved, ts)]


def compress_evolve(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    t: float,
) -> EvolutionResult:
    """Z(t) f for f on the middle interval and t >= 0: ``compress_evolve_many``
    at one t."""
    return compress_evolve_many(bm, domain, f, [t])[0]


# ----------------------------------------------------------------------
# folded-lattice oracles: the fold rule, then the kernel form
# ----------------------------------------------------------------------


def _fold_rule(bm, span):
    """``fold_nodes`` on (-1/2, 1/2] and their weights times the density; every
    folded integrand below is periodic in xi, so the window is immaterial."""
    xi, wq = fold_nodes(bm, span=span)
    return xi, wq * density(bm, _UNIT_DOMAIN, xi)


def _kernel_transform_oracle(bm, f_centered, t, lam):
    """(Z(t) f)^(lambda) for centered unit-interval f, by folded quadrature.

    Implements the kernel integral
        int sinc(lambda - zeta) e(-zeta t) f^(zeta) m^-2(zeta) d zeta
    folded onto one period: for each cell end p with signed value s and
    frequency n the lattice sum over zeta = xi + j collapses to

        sin(pi(lam-xi)) * L(y, xi-n)  +  pi * E2
        ---------------------------------------- ,
                   i 2 pi^2 (lam - n)

    L the lattice sum, E2 = exp(i pi sigma (lam-xi)), y = 1/2 - t - p,
    u = {y}, sigma = 2u - 1, integrated against W_j s e(n p) e(-xi_j (t+p)).
    The lam-dependences split off the nodes, sin(pi(lam-xi)) = sin(pi lam)
    cos(pi xi) - cos(pi lam) sin(pi xi) and E2 = e^{i pi sigma lam}
    e^{-i pi sigma xi}, leaving three node sums per end.  With K = floor(y),
    sin(pi(xi-n)) = (-1)^n sin(pi xi) and e(-xi(t+p)) e^{-i pi sigma xi}
    = e(xi K) they are multiples of M(K) = sum_j W_j e(xi_j K) and of
    S1(K) = sum_j W_j pi cot(pi xi_j) e(xi_j K) = G_K - i pi M(K).  A
    centered packet's ends share at most two K, K0 and K0 + 1, and G_{K0+1}
    - G_{K0} = 2 pi i M(K0 + 1) (``quadrature._fold_windows``), so S1 is
    c i pi M(K), c = -1 at K0 and +1 at K0 + 1, up to a part the ends of
    each cell cancel, and in g = lam - n the end contributes

        s e(-n t) M(K) / 2i * [ c i sinc(g)
            + 2u sinc(g u) sin(pi g (1-u)) + i sigma sinc(sigma g) ],

    sinc(x) = sin(pi x)/(pi x): analytic through lam = n, so no digits
    cancel near it.  The work is O(nodes + ends x lambdas).
    """
    pos, val, freq = _cell_ends(f_centered)
    xi, wq = _fold_rule(bm, abs(t) + 2.0)
    y = 0.5 - t - pos
    lattice, at = np.unique(np.floor(y), return_inverse=True)
    coeffs = _fold_coefficients(xi, wq[None], [0], lattice)[0, at]
    u = y - lattice[at]
    sign = 2.0 * u - 1.0
    g = lam[:, None] - freq
    bracket = np.where(at > 0, 1j, -1j) * np.sinc(g) + (
        2.0 * u * np.sinc(g * u) * np.sin(np.pi * g * (1.0 - u)) + 1j * sign * np.sinc(sign * g)
    )
    return bracket @ (val * coeffs * e2pi(-freq * t)) / 2j


def semigroup_kernel_apply(
    bm: BoundaryMatrix,
    f: StepPacket,
    t: float,
    lambda_grid,
) -> TransformSample:
    """Transform of Z(t) f via the sampling-kernel integral (oracle route).

    f must live on the unit middle interval (1, 2).  Returns a sample with
    no source packet; compare against the transform of the packet-engine
    compression (they agree at the 1e-8 level; tested, never assumed).
    """
    t = _finite_time(t)
    _require_coupled(bm, "semigroup_kernel_apply")
    if t < 0:
        raise NegativeTime(f"semigroup kernel needs t >= 0, got {t}")
    # the oracle works on the interval centred at 0: shift by the midpoint 1.5
    f_c = _require_on(f, 1.0, 2.0, "packet").translate(-1.5)
    lam = np.atleast_1d(_real_lambda(lambda_grid))
    vals = _kernel_transform_oracle(bm, f_c, t, lam) * e2pi(-lam * 1.5)
    return TransformSample(grid=lam, values=vals)


# ----------------------------------------------------------------------
# norm decay profile: engine vs folded-space oracle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NormDecayProfile:
    t: np.ndarray
    engine: np.ndarray
    oracle: np.ndarray
    reference: np.ndarray  # max(1 - t, 0), exact only in the transparent case


def _space_oracle_values(bm, f_centered, t, xs):
    """(Z(t) f)(x) for centered x samples, by the folded lattice sum; t is a
    scalar or one time per x.

    For a cell end p with signed value s and frequency n put y = x - t - p.
    Since sin(pi(xi - n)) = (-1)^n sin(pi xi), the kernel factors as

        e(xi y) L(y, xi - n) = pi/sin(pi xi) e(xi (floor(y) + 1/2)) e(n {y}),

    so each end adds s e(n (x - t)) G_K / (2 pi i), K = floor(y), and a cell
    (ends lo, hi; value v) adds v e(n (x - t)) sum_{K_hi < m <= K_lo} M(m)
    (``quadrature._fold_windows``).  A cell of a centered packet spans at
    most one lattice step, so that window is M(K_lo) or empty: M is read
    once per distinct K_lo and gathered per (point, cell), O(K count x
    nodes + points x cells), the fold rule sized for max |t|.
    """
    pos, val, freq = _cell_ends(f_centered)
    xs = np.asarray(xs, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), xs.shape)
    xi, wq = _fold_rule(bm, np.max(np.abs(t), initial=0.0) + 2.0)
    y = xs[:, None] - t[:, None] - pos
    upper, lower = np.floor(y[:, 0::2]), np.floor(y[:, 1::2])
    lattice, at = np.unique(upper, return_inverse=True)
    coeffs = _fold_coefficients(xi, wq[None], [0], lattice)[0, at.reshape(upper.shape)]
    window = np.where(upper > lower, coeffs, 0.0)
    return (window * e2pi(freq[0::2] * (xs - t)[:, None])) @ val[0::2]


def norm_decay_profile(
    bm: BoundaryMatrix,
    n: int,
    t_grid,
) -> NormDecayProfile:
    """||Z(t) e_n||^2 on the unit middle interval: engine and oracle routes.

    The profile only depends on the interval length.  The engine route is
    the damped wrap on (1, 2); the oracle integrates the folded kernel
    representation on the centered interval (-1/2, 1/2) for the whole grid
    in one call.  |Z(t) e_n|^2 is constant between the cell edges of e_n
    shifted by t and wrapped into the interval (pure geometry, no engine
    data), so each of the two pieces integrates as its length times its
    midpoint value.  With t = k + r (0 <= r < 1) the exact profile is
    q^(2k) (1 - r) + q^(2k+2) r; the reference column max(1-t, 0) is that
    only in the transparent case w = 1.  An empty grid, or a mode n that is
    not an integer, is a ValidationError.
    """
    _require_coupled(bm, "norm_decay_profile")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"norm_decay_profile needs an integer mode n, got {n!r}")
    t_grid = np.array([_finite_time(t) for t in np.atleast_1d(t_grid)])
    if not len(t_grid):
        raise ValidationError("norm_decay_profile needs at least one time")
    if np.any(t_grid < 0):
        raise NegativeTime("profile times must be >= 0")
    f = StepPacket.box(-0.5, 0.5, 1.0, freq=int(n))
    f_mid = StepPacket.box(1.0, 2.0, 1.0, freq=int(n))

    moved = merge_batch(_wrap_middle(bm, _UNIT_DOMAIN, f_mid, t_grid.tolist())).packets()
    engine = np.array([g.norm2() for g in moved])
    # both edges wrap to one cut; at integer t the first piece is empty
    cut = t_grid % 1.0 - 0.5
    length = np.concatenate([cut + 0.5, 0.5 - cut])
    mid = np.concatenate([0.5 * (cut - 0.5), 0.5 * (cut + 0.5)])
    values = _space_oracle_values(bm, f, np.tile(t_grid, 2), mid)
    oracle = (length * np.abs(values) ** 2).reshape(2, -1).sum(axis=0)
    return NormDecayProfile(
        t=t_grid,
        engine=engine,
        oracle=oracle,
        reference=np.maximum(1.0 - t_grid, 0.0),
    )


def parseval_bound_check(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    t: float,
):
    """Partial Parseval mass of Z(t) f against the 4/w^2 energy bound.

    Returns (partial_sum, bound).  The partial sum over the integers within
    64 of the packet center is monotone in the window, so partial <= bound
    is a valid (one-sided) check of the full inequality.
    """
    state = compress_evolve(bm, domain, f, t)
    sup = f.support()
    center = int(round(0.5 * (sup[0] + sup[1])))
    ns = np.arange(center - 64, center + 65, dtype=float)
    vals = state.packet.transform(ns)
    partial = float(np.sum(np.abs(vals) ** 2))
    bound = 4.0 / bm.w**2 * f.norm2()
    return partial, bound


# ----------------------------------------------------------------------
# plain one-interval comparison semigroup and resolvents
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SampledProfile:
    """Function values on an explicit x grid (not piecewise constant)."""

    x: np.ndarray
    values: np.ndarray


def _resolvent_input(domain, lam, f, x_grid):
    """Complex lam (Re > 0), f on (1, alpha) (the leak rule) and x_grid as a
    1-d float array, ValidationError unless it is not empty and every point
    is a number in [1, alpha], where Z(t) f lives."""
    lam = complex(lam)
    if lam.real <= 0:
        raise HalfPlaneViolation("resolvent needs Re lambda > 0")
    lo, hi = domain.component("izero")
    f0 = _require_on(f, lo, hi, "resolvent input")
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if not x_grid.size:
        raise ValidationError("resolvent needs at least one point")
    if not np.all((x_grid >= lo) & (x_grid <= hi)):
        raise ValidationError(f"resolvent points must lie in [{lo:g}, {hi:g}]")
    return lam, f0, x_grid


def spatial_resolvent(
    domain: ExteriorDomain, lam: complex, f: StepPacket, x_grid
) -> SampledProfile:
    """Resolvent of the shift generator on the middle interval, closed form:

        (R(lam) f)(x) = int_1^x e^{-lam (x-y)} f(y) dy,   Re lam > 0.
    """
    lam, f0, x_grid = _resolvent_input(domain, lam, f, x_grid)
    return SampledProfile(x=x_grid, values=_cell_laplace(lam, f0, x_grid, -np.inf, x_grid))


# widest Re(lam) (r - b) over the upper limits b of one anchor band r: the
# factors e^{-lam (x - r)} of the band stay within e^30 ~ 1e13
_BAND = 30.0


def _cell_laplace(lam, f, x_grid, lo, hi):
    """sum over the cells (u, v) of f of int e^{-lam (x-y)} f(y) dy over
    max(u, lo) < y < min(v, hi), at every x; lo, hi scalars or per-x arrays.

    One antiderivative serves every x.  With F(y) = int_{-inf}^y e^{lam (s-r)}
    f(s) ds for an anchor r, the value at x is e^{-lam (x-r)} (F(b) - F(a)),
    b = min(hi, .) and a = max(lo, .) clipped into the support, a <= b.  F is
    the prefix sum of the per-cell closed form

        c e^{lam (v-r)} e(n v) (1 - e^{-mu (v-u)}) / mu,   mu = lam + i 2 pi n,

    over the cells before y, plus that form on the partial cell at y, found
    by one ``searchsorted`` on the cell starts.  The points are grouped into
    bands whose upper limits b lie within _BAND / Re lam of the largest,
    the band's anchor r, and the cell ends are clipped to r, so no factor
    e^{lam (v-r)} exceeds 1; one band covers every point unless Re lam times
    the spread of b exceeds _BAND.  All frequencies go as one (frequency x
    cells) array: the cost is O((points + cells) x frequencies) per band.
    Precondition: every cell end used (every b) lies at or below its x, as
    each route integrates the past of x, so e^{-lam (x-r)} stays within
    e^_BAND.
    """
    if f.is_empty:
        return np.zeros(x_grid.shape, dtype=complex)
    u, v = f.lo, f.hi
    c = np.array(list(f.waves.values()))
    tau = 2j * np.pi * np.array(list(f.waves), dtype=float)[:, None]
    mu = -(lam + tau)
    top = np.minimum(np.maximum(hi, u[0]), v[-1])
    limits = [top]
    if np.ndim(lo) or lo > u[0]:  # F(u[0]) = 0: a lower limit below adds nothing
        limits.append(np.minimum(np.maximum(lo, u[0]), top))
    out = np.empty(x_grid.shape, dtype=complex)
    for band, r in _anchor_bands(top, _BAND / lam.real):
        ends = [np.atleast_1d(e if np.ndim(e) == 0 else e[band]) for e in limits]
        y = np.concatenate(ends)
        k = np.searchsorted(u, y, side="right") - 1
        vr = np.minimum(v, r)
        # int_a^b e^{lam (s-r)} c e(n s) ds, a row per frequency n (tau = i 2 pi
        # n, mu = -(lam + tau)), in one pass over the whole cells, ends
        # clipped to r, and the partial cell k at each limit y
        a = np.concatenate((np.minimum(u, vr), u[k]))
        b = np.concatenate((vr, np.minimum(y, v[k])))
        piece = np.exp(lam * (b - r) + tau * b) * (np.expm1(mu * (b - a)) / mu)
        cols = (np.concatenate((c, c[:, k]), axis=1) * piece).sum(axis=0)
        before = np.concatenate(([0j], np.cumsum(cols[: len(u) - 1])))
        anti = before[k] + cols[len(u):]
        span = anti[: len(ends[0])]
        if len(ends) > 1:
            span = span - anti[len(span):]
        # a point before the support has span 0: its factor is taken at the
        # support's start, which cannot overflow
        out[band] = np.exp(-lam * (np.maximum(x_grid[band], ends[0]) - r)) * span
    return out


def _anchor_bands(top, width):
    """(index set, anchor r) per band of points: the upper limits ``top`` of
    a band lie within ``width`` of its anchor, their largest.  A scalar
    ``top`` is one band."""
    r = top.max()
    if np.ndim(top) == 0 or top.min() >= r - width:
        return [(slice(None), r)]
    bands, pending = [], np.arange(len(top))
    while len(pending):
        r = top[pending].max()
        near = top[pending] >= r - width
        bands.append((pending[near], r))
        pending = pending[~near]
    return bands


def compressed_resolvent_profile(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    lam: complex,
    f: StepPacket,
    x_grid,
) -> SampledProfile:
    """Laplace transform of the compressed evolution on an x grid.

    (R f)(x) = int_0^T e^{-lam t} (E f)(x - t) dt, E the density row, with
    the horizon cut once e^{-T Re lam} <= 1e-12, so E is read exactly on its
    causal window (1 - T, alpha).  As int_{x-T}^x e^{-lam (x-y)} (E f)(y) dy
    it is exact per cell of the step packet E f.
    """
    _require_coupled(bm, "compressed_resolvent_profile")
    lam, f0, x_grid = _resolvent_input(domain, lam, f, x_grid)
    t_max = -np.log(1e-12) / lam.real
    zero = StepPacket.zero()
    ef = block_row(bm, domain, (zero, f0, zero), "izero", span=(0.0, t_max))
    values = _cell_laplace(lam, ef, x_grid, x_grid - t_max, x_grid)
    return SampledProfile(x=x_grid, values=values)


def _compressed_resolvent_closed(bm, domain, lam, f0, x_grid):
    """Closed-form Laplace of the compressed evolution (series in k) of f0
    on the middle interval, for complex lam:

    R f(x) = int_1^x e^{-lam(x-y)} f(y) dy
             + (sum_{k>=1} a_k e^{-lam k ell}) int_I0 e^{-lam(x-u)} f(u) du.
    """
    base = _cell_laplace(lam, f0, x_grid, -np.inf, x_grid)
    # sum_{k>=1} q^k e(-k psi) e^{-lam k ell} (the k >= 1 half of the series);
    # its first e^{-lam ell} goes into the whole-interval integral, whose
    # exponent -lam (x + ell - u) then has Re <= 0 and cannot overflow
    z = bm.b_entry * np.exp(-lam * domain.ell)
    whole = _cell_laplace(lam, f0, x_grid + domain.ell, -np.inf, np.inf)
    return base + bm.b_entry / (1.0 - z) * whole


def resolvent_comparison(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    lam: complex,
    f: StepPacket,
    x_grid,
):
    """Three resolvent routes on one x grid, with their discrepancies.

    Returns a dict with the Laplace-route values (the density row over the
    horizon), the closed-form values (the z/(1 - z) resummation; these two
    must agree, 'laplace_vs_closed' is the max pointwise gap) and the plain
    one-interval resolvent at the rescaled parameter lam * m(0)^2 together
    with the measured rms gap 'rescaled_discrepancy' (a reported quantity,
    not an identity: it vanishes in the transparent case and grows as w
    decreases).  Every route is exact per cell; x must lie in [1, alpha].
    The input is checked once, by the Laplace route, and shared.
    """
    laplace = compressed_resolvent_profile(bm, domain, lam, f, x_grid)
    lam, x_grid = complex(lam), laplace.x
    f0 = f.restrict(*domain.component("izero"))  # bit for bit what the check kept
    closed = _compressed_resolvent_closed(bm, domain, lam, f0, x_grid)
    m0 = float(np.abs(eigen_coeffs(bm, domain, 0.0).a))
    rescaled = _cell_laplace(lam * m0**2, f0, x_grid, -np.inf, x_grid)
    gap_routes = float(np.max(np.abs(laplace.values - closed)))
    rms = float(np.sqrt(np.mean(np.abs(laplace.values - rescaled) ** 2)))
    return {
        "x": x_grid,
        "laplace": laplace.values,
        "closed_form": closed,
        "rescaled_spatial": rescaled,
        "laplace_vs_closed": gap_routes,
        "rescaled_discrepancy": rms,
        "m0_squared": m0**2,
    }
