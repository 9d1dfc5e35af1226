"""Compressed evolution on the middle interval and its kernel/resolvent
identities.

Compressing the unitary evolution to the middle interval gives a one-
parameter contraction semigroup Z(t), t >= 0, with Z(ell) = q e(-psi) I:
content that reaches alpha re-enters at 1 scaled by z = q e(-psi) on each
pass, the damped wrap ``evolution._wrap_middle``, exact and series-free.  On
the transform side the same operator is an integral kernel against the
band-limited (Shannon) sampling kernel of the interval, weighted by the
spectral density — evaluated here by an independent folded
quadrature: the line integral is reduced to one period of the density via
the closed-form lattice sums

    sum_j e(j y)/(j + a) = (pi/sin(pi a)) exp(i pi a (1 - 2 {y})),

with the two halves of each cell combined so every endpoint singularity
cancels analytically.  The folded period is integrated by the periodic rule
of ``quadrature.periodic_nodes``, sized from q so the quadrature error stays
near 1e-13 however sharp the density spikes.  Nothing in the oracle touches
the packet engine.

The module also carries the plain one-interval comparison semigroup (shift
and truncate), its generator's resolvent in closed form, and the Laplace-
transform route to the compressed resolvent (on the causal window of its
horizon).  A non-finite time is a ValidationError everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, e2pi, make_domain
from .errors import (
    DegenerateRegime,
    HalfPlaneViolation,
    NegativeTime,
    SupportViolation,
    ValidationError,
)
from .eigen import eigen_coeffs
from .evolution import EvolutionResult, _finite_time, _wrap_middle, block_row
from .packets import StepPacket
from .quadrature import _FOLD_TOL, gauss_panels, lattice_sum, periodic_nodes
from .spectral import density
from .transform import TransformSample, _cell_ends

__all__ = [
    "ShannonBasisCoeffs",
    "compress_evolve",
    "shannon_kernel",
    "shannon_coeffs",
    "shannon_interpolate",
    "semigroup_kernel_apply",
    "norm_decay_profile",
    "NormDecayProfile",
    "spatial_semigroup",
    "spatial_resolvent",
    "SampledProfile",
    "compressed_resolvent_profile",
    "resolvent_comparison",
    "parseval_bound_check",
]


# the unit middle interval (1, 2): ell = 1, so the density has unit period
_UNIT_DOMAIN = make_domain(2.0, 3.0)


def _require_on(f: StepPacket, lo: float, hi: float, what: str) -> None:
    """SupportViolation unless f carries no mass outside (lo, hi)."""
    if f.norm2() - f.restrict(lo, hi).norm2() > 1e-12 * max(1.0, f.norm2()):
        raise SupportViolation(f"{what} must live on ({lo:g}, {hi:g})")


def compress_evolve(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    t: float,
) -> EvolutionResult:
    """Z(t) f for f on the middle interval and t >= 0: the damped wrap
    (z = ``bm.b_entry`` per pass), which is exact, so the truncation is 0."""
    t = _finite_time(t)
    if bm.w == 0.0:
        raise DegenerateRegime("compressed semigroup needs w > 0")
    if t < 0:
        raise NegativeTime(f"compressed semigroup needs t >= 0, got {t}")
    lo, hi = domain.component("izero")
    _require_on(f, lo, hi, "compress_evolve input")
    g = _wrap_middle(bm, domain, f.restrict(lo, hi), t)
    return EvolutionResult(packet=g, t=t, truncation=0.0)


# ----------------------------------------------------------------------
# band-limited sampling machinery
# ----------------------------------------------------------------------


def shannon_kernel(lam, xi, center: float = 0.0):
    """Sampling kernel of a unit interval centered at ``center``:
    sinc(lam - xi) e(-(lam - xi) center); reduces to sinc for center 0."""
    lam = np.asarray(lam, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return np.sinc(lam - xi) * e2pi(-(lam - xi) * center)


@dataclass(frozen=True)
class ShannonBasisCoeffs:
    """Integer transform samples of a unit-interval packet."""

    n: np.ndarray
    values: np.ndarray
    center: float
    tail_estimate: float


def shannon_coeffs(f: StepPacket, n_lo: int, n_hi: int) -> ShannonBasisCoeffs:
    """Transform samples f^(n) for n in [n_lo, n_hi); f must fit in a unit
    interval.  tail_estimate is the Parseval mass outside the window."""
    sup = f.support()
    if sup is None:
        raise ValidationError("cannot sample an empty packet")
    if sup[1] - sup[0] > 1.0 + 1e-12:
        raise ValidationError("sampling needs support inside a unit interval")
    n = np.arange(int(n_lo), int(n_hi))
    vals = f.transform(n.astype(float))
    tail = max(0.0, f.norm2() - float(np.sum(np.abs(vals) ** 2)))
    return ShannonBasisCoeffs(
        n=n, values=vals, center=0.5 * (sup[0] + sup[1]), tail_estimate=tail
    )


def shannon_interpolate(coeffs: ShannonBasisCoeffs, lam):
    """Reconstruct f^(lambda) from integer samples (band-limited formula)."""
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    k = shannon_kernel(lam[:, None], coeffs.n[None, :].astype(float), coeffs.center)
    out = k @ coeffs.values
    return out[0] if scalar else out


# ----------------------------------------------------------------------
# folded-lattice oracle for the kernel form of the semigroup
# ----------------------------------------------------------------------


def _fold_rule(bm, span):
    """Periodic nodes, weights and density values for one folded period."""
    xi, wq = periodic_nodes(bm.q, _FOLD_TOL, span)
    return xi, wq * density(bm, _UNIT_DOMAIN, xi)


def _kernel_transform_oracle(bm, f_centered, t, lam):
    """(Z(t) f)^(lambda) for centered unit-interval f, by folded quadrature.

    Implements the kernel integral
        int sinc(lambda - zeta) e(-zeta t) f^(zeta) m^-2(zeta) d zeta
    folded onto one period: for each cell end p with signed value s_p and
    frequency n the lattice sum over zeta = xi + j collapses to

        sin(pi(lam-xi)) * L(y, xi-n)  +  pi * E2
        ---------------------------------------- ,
                   i 2 pi^2 (lam - n)

    L the lattice sum, E2 = exp(i pi (lam-xi)(2{y}-1)), y = 1/2 - t - p.
    The lam -> n limit is taken analytically.
    """
    pos, val, freq = _cell_ends(f_centered)
    xi, wq = _fold_rule(bm, abs(t) + 2.0)
    res = np.zeros(lam.shape, dtype=complex)
    for p, s, n in zip(pos, val, freq):
        y = 0.5 - t - p
        sign = 2.0 * (y - np.floor(y)) - 1.0
        lsum = lattice_sum(y, xi - n)
        weighted = wq * s * e2pi(n * p) * e2pi(-xi * (t + p)) / (2j * np.pi**2)
        for k, lk in enumerate(lam):
            e2 = np.exp(1j * np.pi * (lk - xi) * sign)
            if abs(lk - n) > 1e-12:
                bracket = (np.sin(np.pi * (lk - xi)) * lsum + np.pi * e2) / (lk - n)
            else:
                # removable point: d/dlam of the bracket at lam = n
                bracket = (
                    np.pi * np.cos(np.pi * (lk - xi)) * lsum
                    + 1j * np.pi**2 * sign * e2
                )
            res[k] += np.sum(weighted * bracket)
    return res


def semigroup_kernel_apply(
    bm: BoundaryMatrix,
    f: StepPacket,
    t: float,
    lambda_grid,
    interval=(1.0, 2.0),
) -> TransformSample:
    """Transform of Z(t) f via the sampling-kernel integral (oracle route).

    f must live on the given unit-length interval.  Returns a quadrature-
    provenance sample; compare against the transform of the packet-engine
    compression (they agree at the 1e-8 level; tested, never assumed).
    """
    t = _finite_time(t)
    if bm.w == 0.0:
        raise DegenerateRegime("semigroup kernel needs w > 0")
    if t < 0:
        raise NegativeTime(f"semigroup kernel needs t >= 0, got {t}")
    lo, hi = float(interval[0]), float(interval[1])
    if abs((hi - lo) - 1.0) > 1e-12:
        raise ValidationError("kernel route needs a unit-length interval")
    _require_on(f, lo, hi, "packet")
    center = 0.5 * (lo + hi)
    f_c = f.translate(-center)
    lam = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    vals = _kernel_transform_oracle(bm, f_c, t, lam) * e2pi(-lam * center)
    return TransformSample(grid=lam, values=vals, provenance="quadrature", bm=bm)


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
    """(Z(t) f)(x) for centered x samples, by the folded lattice sum."""
    pos, val, freq = _cell_ends(f_centered)
    xi, wq = _fold_rule(bm, abs(t) + 2.0)
    out = np.zeros(len(xs), dtype=complex)
    for p, s, n in zip(pos, val, freq):
        y = np.asarray(xs, dtype=float)[:, None] - t - p
        terms = e2pi(xi * y) * lattice_sum(y, xi - n)
        out += s * e2pi(n * p) / (2j * np.pi) * (terms @ wq)
    return out


def norm_decay_profile(
    bm: BoundaryMatrix,
    n: int,
    t_grid,
) -> NormDecayProfile:
    """||Z(t) e_n||^2 on the unit middle interval: engine and oracle routes.

    The profile only depends on the interval length.  The engine route is
    the damped wrap on (1, 2); the oracle integrates the folded kernel
    representation on the centered interval (-1/2, 1/2) and squares on an
    order-8 Gauss grid over the pieces.  With t = k + r (0 <= r < 1) the
    exact profile is q^(2k) (1 - r) + q^(2k+2) r; the reference column
    max(1-t, 0) is that only in the transparent case w = 1.
    """
    if bm.w == 0.0:
        raise DegenerateRegime("norm decay profile needs w > 0")
    t_grid = np.array([_finite_time(t) for t in np.atleast_1d(t_grid)])
    if np.any(t_grid < 0):
        raise NegativeTime("profile times must be >= 0")
    f = StepPacket.box(-0.5, 0.5, 1.0, freq=int(n))
    f_mid = StepPacket.box(1.0, 2.0, 1.0, freq=int(n))

    engine = np.empty(t_grid.shape)
    oracle = np.empty(t_grid.shape)
    for k, t in enumerate(t_grid):
        engine[k] = _wrap_middle(bm, _UNIT_DOMAIN, f_mid, t).norm2()
        # piece boundaries: the cell edges of f shifted by t, wrapped into
        # the interval (pure geometry, no engine data); both wrap to one cut
        cut = t % 1.0 - 0.5
        oracle[k] = gauss_panels(
            lambda x: np.abs(_space_oracle_values(bm, f, float(t), x)) ** 2,
            [-0.5, cut, 0.5] if -0.5 < cut < 0.5 else [-0.5, 0.5],
            8,
        )
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


def spatial_semigroup(domain: ExteriorDomain, f: StepPacket, t: float) -> StepPacket:
    """Shift-and-truncate semigroup on the middle interval (no coupling)."""
    t = _finite_time(t)
    if t < 0:
        raise NegativeTime(f"needs t >= 0, got {t}")
    lo, hi = domain.component("izero")
    return f.translate(t).restrict(lo, hi)


def spatial_resolvent(
    domain: ExteriorDomain, lam: complex, f: StepPacket, x_grid
) -> SampledProfile:
    """Resolvent of the shift generator on the middle interval, closed form:

        (R(lam) f)(x) = int_1^x e^{-lam (x-y)} f(y) dy,   Re lam > 0.
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise HalfPlaneViolation("resolvent needs Re lambda > 0")
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    return SampledProfile(x=x_grid, values=_cell_laplace(domain, lam, f, x_grid, x_grid))


def _cell_laplace(domain, lam, f, x_grid, upto):
    """sum over the middle-interval cells of f of
    int_{y < upto} e^{-lam (x-y)} f(y) dy at every x of x_grid."""
    vals = np.zeros(x_grid.shape, dtype=complex)
    for u, v, stack in f.restrict(*domain.component("izero")).cells():
        y1 = np.minimum(upto, v)
        y0 = np.minimum(upto, u)
        active = y1 > y0
        for n, val in stack.items():
            # int_{y0}^{y1} e(n y) e^{-lam (x-y)} dy with mu = lam + i 2 pi n
            mu = lam + 2j * np.pi * n
            contrib = (
                np.exp(-lam * (x_grid - y1)) * e2pi(n * y1)
                - np.exp(-lam * (x_grid - y0)) * e2pi(n * y0)
            ) / mu
            vals += np.where(active, val * contrib, 0.0)
    return vals


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
    causal window (1 - T, alpha).  The integrand is piecewise exponential in
    t (breakpoints where the cells of E cross x); order-16 Gauss-Legendre
    per breakpoint panel is exact to machine precision.
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise HalfPlaneViolation("resolvent needs Re lambda > 0")
    _require_on(f, *domain.component("izero"), "resolvent input")
    t_max = -np.log(1e-12) / lam.real
    zero = StepPacket.zero()
    ef = block_row(bm, domain, (zero, f, zero), "izero", window=(1.0 - t_max, domain.alpha))
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    out = np.empty(x_grid.shape, dtype=complex)
    edges_src = ef.breakpoints()
    for k, x in enumerate(x_grid):
        # Z(t)f(x) = (Ef)(x - t): breakpoints in t at x - source edges
        cuts = x - edges_src
        cuts = cuts[(cuts > 0.0) & (cuts < t_max)]
        panels = np.unique(np.concatenate(([0.0], cuts, [t_max])))
        out[k] = gauss_panels(lambda ts: ef.sample(x - ts) * np.exp(-lam * ts), panels, 16)
    return SampledProfile(x=x_grid, values=out)


def _compressed_resolvent_closed(bm, domain, lam, f, x_grid):
    """Closed-form Laplace of the compressed evolution (series in k):

    R f(x) = int_1^x e^{-lam(x-y)} f(y) dy
             + (sum_{k>=1} a_k e^{-lam k ell}) int_I0 e^{-lam(x-u)} f(u) du.
    """
    lam = complex(lam)
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    base = _cell_laplace(domain, lam, f, x_grid, x_grid)
    whole = _cell_laplace(domain, lam, f, x_grid, np.inf)
    # sum_{k>=1} q^k e(-k psi) e^{-lam k ell} (the k >= 1 half of the series)
    z = bm.b_entry * np.exp(-lam * domain.ell)
    return SampledProfile(x=x_grid, values=base + z / (1.0 - z) * whole)


def resolvent_comparison(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    lam: complex,
    f: StepPacket,
    x_grid,
):
    """Three resolvent routes on one x grid, with their discrepancies.

    Returns a dict with the Laplace-quadrature values, the closed-form
    series values (these two must agree; 'laplace_vs_closed' is the max
    pointwise gap) and the plain one-interval resolvent at the rescaled
    parameter lam * m(0)^2 together with the measured rms gap
    'rescaled_discrepancy' (a reported quantity, not an identity: it
    vanishes in the transparent case and grows as w decreases).
    """
    laplace = compressed_resolvent_profile(bm, domain, lam, f, x_grid)
    closed = _compressed_resolvent_closed(bm, domain, lam, f, x_grid)
    m0 = float(np.abs(eigen_coeffs(bm, domain, 0.0).a))
    rescaled = spatial_resolvent(domain, complex(lam) * m0**2, f, x_grid)
    gap_routes = float(np.max(np.abs(laplace.values - closed.values)))
    diff = laplace.values - rescaled.values
    rms = float(np.sqrt(np.mean(np.abs(diff) ** 2)))
    return {
        "x": laplace.x,
        "laplace": laplace.values,
        "closed_form": closed.values,
        "rescaled_spatial": rescaled.values,
        "laplace_vs_closed": gap_routes,
        "rescaled_discrepancy": rms,
        "m0_squared": m0**2,
    }
