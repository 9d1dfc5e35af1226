"""Degenerate obstacle families: one point, one interval, two points.

These are the shrink/merge limits of the two-interval geometry, small
enough that the conjugating map V onto the free line is completely
explicit.  A point is the interval of width 0, so the point and the
interval share one V, one V* and one native evolution: translation, with
the cut jumped by ``evolution._splice``.  The w = 0 half-lines of the
two-gap domain are the interval model of width beta and theta
(theta - psi + 1/2) mod 1.  For the single point and the single interval
V is unitary (piecewise phase, plus a rigid gap jump for the interval) and
conjugates the extension's evolution to plain translation — the tests
drive packets through both routes and ask for exact agreement.  For two
points the map picks up a genuine multiplier

    a(xi) = (1 - q e(alpha xi)) / w,      q = sqrt(1 - w^2),

so V*V is a three-term lattice convolution rather than a scalar; the
module exposes both the pointwise modulus and the convolution route so the
suite can confirm they are the same function and that V is *not* an
isometry (that defect is the whole point of the density weight in the
non-degenerate theory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import _co_coupling, _real_lambda, _round_trip, e2pi
from .batch import merge_batch
from .errors import ValidationError
from .evolution import _partition, _require_kept, _splice
from .packets import StepPacket

__all__ = [
    "OnePointModel",
    "OneIntervalModel",
    "TwoPointsModel",
    "degenerate_V",
    "degenerate_Vstar",
    "degenerate_evolve",
    "conjugation_residual",
    "two_points_multiplier",
    "two_points_abs2_routes",
    "two_points_bounds",
    "isometry_ratio",
]

_INF = np.inf


@dataclass(frozen=True)
class OnePointModel:
    """Momentum on the line punctured at 0; crossing phase det = e(theta)."""

    theta: float


@dataclass(frozen=True)
class OneIntervalModel:
    """Single obstacle [0, alpha]; one phase and a rigid jump of width alpha."""

    theta: float
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValidationError(f"obstacle width must be positive, got {self.alpha}")


@dataclass(frozen=True)
class TwoPointsModel:
    """Two punctures at 0 and alpha, coupled with weight w."""

    w: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.w <= 1.0:
            raise ValidationError(f"coupling must satisfy 0 < w <= 1, got {self.w}")
        if not self.alpha > 0:
            raise ValidationError(f"spacing must be positive, got {self.alpha}")

    @property
    def q(self) -> float:
        return _co_coupling(self.w)


def _cut(model):
    """(width, theta) of the removed point (width 0) or interval."""
    if isinstance(model, OneIntervalModel):
        return model.alpha, model.theta
    if isinstance(model, OnePointModel):
        return 0.0, model.theta
    raise ValidationError(f"expected a point or interval model, got {type(model).__name__}")


def degenerate_V(model, f: StepPacket) -> StepPacket:
    """Map a free-line packet onto the obstacle geometry."""
    if isinstance(model, TwoPointsModel):
        w, q, al = model.w, model.q, model.alpha
        comb_l = f.scale(1.0 / w) - f.translate(-al).scale(q / w)
        comb_r = f.scale(1.0 / w) - f.translate(al).scale(q / w)
        return (
            comb_l.restrict(-_INF, 0.0)
            + f.restrict(0.0, al)
            + comb_r.restrict(al, _INF)
        )
    width, theta = _cut(model)
    return f.restrict(-_INF, 0.0).scale(e2pi(theta)) + f.restrict(0.0, _INF).translate(width)


def degenerate_Vstar(model, g: StepPacket) -> StepPacket:
    """Adjoint of degenerate_V (exact inverse for the two unitary models)."""
    if isinstance(model, TwoPointsModel):
        w, q, al = model.w, model.q, model.alpha
        left, mid, right = _partition(g, (0.0, al))
        # adjoint of (f -> (f - q f(.+al))/w restricted left) sends the left
        # piece back with the conjugate-transposed lattice shifts
        back = left.scale(1.0 / w) - left.translate(al).scale(q / w)
        forth = right.scale(1.0 / w) - right.translate(-al).scale(q / w)
        return back + mid + forth
    width, theta = _cut(model)
    return g.restrict(-_INF, 0.0).scale(e2pi(-theta)) + g.restrict(width, _INF).translate(-width)


def degenerate_evolve(model, f: StepPacket, t: float) -> StepPacket:
    """Native evolution for the point / interval models, any t.

    Translation at unit speed; crossing the obstacle rightward multiplies
    by e(-theta) and jumps the width (0 for the point), leftward by
    e(theta).  Not defined for the two-point family, whose interesting
    structure lives in V itself.  Mass on the interval raises
    SupportViolation.
    """
    width, theta = _cut(model)
    left, on_cut, right = _partition(f, (0.0, width))
    _require_kept(f, (on_cut,), "packet", "the line outside the obstacle")
    return merge_batch(_splice(left, right, [float(t)], width, complex(e2pi(-theta)))).packets()[0]


def conjugation_residual(model, f: StepPacket, t: float) -> float:
    """L2 distance between V* U(t) V f and the rigid translate of f."""
    evolved = degenerate_evolve(model, degenerate_V(model, f), t)
    return float(np.sqrt(degenerate_Vstar(model, evolved).distance2(f.translate(t))))


# ----------------------------------------------------------------------
# two-point multiplier: pointwise vs lattice-convolution routes
# ----------------------------------------------------------------------


def two_points_multiplier(model: TwoPointsModel, xi):
    """a(xi) = (1 - q e(alpha xi)) / w, the round trip of ``domain._round_trip``."""
    xi = _real_lambda(xi)
    return _round_trip(model.w, model.q, model.alpha * xi) / model.w


def two_points_abs2_routes(model: TwoPointsModel, xi_grid):
    """|a(xi)|^2 two ways: direct modulus, and the three-term lattice series
    obtained by convolving the V coefficients {0: 1/w, +1: -q/w} with their
    conjugate reflection."""
    xi = np.atleast_1d(_real_lambda(xi_grid))
    direct = np.abs(two_points_multiplier(model, xi)) ** 2
    coeffs = {0: 1.0 / model.w, 1: -model.q / model.w}
    series_coeffs: dict[int, complex] = {}
    for j, cj in coeffs.items():
        for k, ck in coeffs.items():
            series_coeffs[j - k] = series_coeffs.get(j - k, 0.0) + cj * np.conj(ck)
    series = np.zeros(xi.shape, dtype=complex)
    for k, ck in series_coeffs.items():
        series += ck * e2pi(k * model.alpha * xi)
    return direct, series


def two_points_bounds(model: TwoPointsModel):
    """Sharp and loose envelopes for |a(xi)|:
    [w/(1+q), (1+q)/w] inside the loose [w/2, 2/w]."""
    w, q = model.w, model.q
    return {
        "sharp": (w / (1.0 + q), (1.0 + q) / w),
        "loose": (w / 2.0, 2.0 / w),
    }


def isometry_ratio(model, f: StepPacket) -> float:
    """||V f||^2 / ||f||^2 — constant 1 for the unitary models, genuinely
    f-dependent for the two-point family."""
    n = f.norm2()
    if n == 0.0:
        raise ValidationError("need a nonzero packet")
    return float(degenerate_V(model, f).norm2() / n)
