"""Geometry and boundary data for the two-obstacle line.

The configuration space is the real line with two closed intervals removed,

    Omega = I_minus + I_zero + I_plus
          = (-inf, 0) + (1, alpha) + (beta, inf),        1 < alpha < beta.

The first obstacle is always [0, 1]; the second is [alpha, beta].  The
length of the middle component, ``ell = alpha - 1``, sets the lattice step
for every translation series in the package.

Self-adjoint transport across the obstacles is encoded by a 2x2 unitary
boundary matrix built from a coupling ``w`` in [0, 1] and three phases
(theta, phi, psi), all stored in cycles (full turns, so 0.25 means a quarter
turn).  ``w = 0`` decouples the middle interval from the half-lines; ``w = 1``
makes the obstacles transparent up to phase splices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import OrderingViolation, RangeViolation, ValidationError

__all__ = [
    "TWO_PI",
    "e2pi",
    "ExteriorDomain",
    "BoundaryMatrix",
    "Region",
    "make_domain",
    "make_boundary_matrix",
    "to_su2",
    "classify_point",
]

TWO_PI = 2.0 * np.pi


def e2pi(x):
    """The unit phase e(x) = exp(i 2 pi x); x measured in cycles.

    Works elementwise on arrays.  Every phase in this package is a value of
    e2pi; angles in radians never appear in public interfaces.
    """
    return np.exp(1j * TWO_PI * np.asarray(x, dtype=float))


def _real_lambda(lam) -> np.ndarray:
    """lam as a float array; ValidationError unless every value is real."""
    lam = np.asarray(lam)
    if np.iscomplexobj(lam) and np.any(lam.imag):
        raise ValidationError("lambda must be real")
    return np.asarray(lam.real, dtype=float)


class Region(Enum):
    """Classification of a point relative to the domain components."""

    I_MINUS = "iminus"
    BARRIER_1 = "barrier1"
    I_ZERO = "izero"
    BARRIER_2 = "barrier2"
    I_PLUS = "iplus"
    BOUNDARY = "boundary"


# position of each component tag in ExteriorDomain.components
_COMPONENT_INDEX = {"iminus": 0, "izero": 1, "iplus": 2}


@dataclass(frozen=True)
class ExteriorDomain:
    """The line with [0, 1] and [alpha, beta] removed."""

    alpha: float
    beta: float

    @property
    def ell(self) -> float:
        """Length of the middle component (the translation lattice step)."""
        return self.alpha - 1.0

    @property
    def gap(self) -> float:
        """Length of the second obstacle, beta - alpha."""
        return self.beta - self.alpha

    @property
    def components(self):
        """The three open components as (lo, hi) pairs, -inf/inf allowed."""
        return (
            (-np.inf, 0.0),
            (1.0, self.alpha),
            (self.beta, np.inf),
        )

    def component(self, tag: str):
        """Interval for one of 'iminus' / 'izero' / 'iplus'."""
        try:
            return self.components[_COMPONENT_INDEX[tag]]
        except KeyError:
            raise KeyError(f"unknown component tag {tag!r}") from None


def make_domain(alpha: float, beta: float) -> ExteriorDomain:
    """Validate 1 < alpha < beta and build the domain."""
    alpha = float(alpha)
    beta = float(beta)
    if not np.isfinite(alpha) or not np.isfinite(beta):
        raise OrderingViolation("alpha and beta must be finite")
    if not (1.0 < alpha < beta):
        raise OrderingViolation(
            f"need 1 < alpha < beta, got alpha={alpha!r}, beta={beta!r}"
        )
    return ExteriorDomain(alpha, beta)


def classify_point(domain: ExteriorDomain, x: float) -> Region:
    """Locate x relative to the domain components; an exact hit on one of
    the four obstacle endpoints is BOUNDARY."""
    if x in (0.0, 1.0, domain.alpha, domain.beta):
        return Region.BOUNDARY
    if x < 0.0:
        return Region.I_MINUS
    if x < 1.0:
        return Region.BARRIER_1
    if x < domain.alpha:
        return Region.I_ZERO
    if x < domain.beta:
        return Region.BARRIER_2
    return Region.I_PLUS


@dataclass(frozen=True)
class BoundaryMatrix:
    """Unitary 2x2 boundary matrix in the (w, theta, phi, psi) chart.

    Parameters are stored as given: coupling w in [0, 1] and the three
    phases in cycles.  ``regime`` is decided exactly from w (no tolerance):
    'decoupled' (w == 0), 'transparent' (w == 1) or 'generic'.
    """

    w: float
    theta: float
    phi: float
    psi: float

    @property
    def regime(self) -> str:
        if self.w == 0.0:
            return "decoupled"
        if self.w == 1.0:
            return "transparent"
        return "generic"

    @property
    def q(self) -> float:
        """The co-coupling sqrt(1 - w^2) (modulus of the off-diagonal)."""
        return float(np.sqrt(max(0.0, 1.0 - self.w * self.w)))

    @property
    def a_entry(self) -> complex:
        """Diagonal generator a = w e(-phi) with B = [[conj(a), ...]]."""
        return self.w * complex(e2pi(-self.phi))

    @property
    def b_entry(self) -> complex:
        """Off-diagonal generator b = sqrt(1-w^2) e(-psi)."""
        return self.q * complex(e2pi(-self.psi))

    @property
    def det_phase(self) -> complex:
        """det B = e(theta)."""
        return complex(e2pi(self.theta))

    def matrix(self) -> np.ndarray:
        """The 2x2 array [[conj(a), -b e(theta)], [conj(b), a e(theta)]]."""
        a = self.a_entry
        b = self.b_entry
        det = self.det_phase
        return np.array(
            [
                [np.conj(a), -b * det],
                [np.conj(b), a * det],
            ],
            dtype=complex,
        )


def make_boundary_matrix(
    w: float, theta: float = 0.0, phi: float = 0.0, psi: float = 0.0
) -> BoundaryMatrix:
    """Validate parameters and build the boundary matrix.

    w must lie in [0, 1]; phases may be any reals and are reduced mod 1 so
    equal matrices get equal parameters.
    """
    w = float(w)
    if not np.isfinite(w) or not (0.0 <= w <= 1.0):
        raise RangeViolation(f"coupling w must be in [0, 1], got {w!r}")
    theta, phi, psi = (float(p) % 1.0 for p in (theta, phi, psi))
    for name, val in (("theta", theta), ("phi", phi), ("psi", psi)):
        if not np.isfinite(val):
            raise RangeViolation(f"phase {name} must be finite")
    return BoundaryMatrix(w=w, theta=theta, phi=phi, psi=psi)


def to_su2(bm: BoundaryMatrix):
    """Split B = e(theta/2) * V with V in SU(2); returns (phase, V).

    The square root of the determinant is taken with theta/2 in cycles, so
    the convention is continuous in theta on [0, 1).
    """
    half = complex(e2pi(bm.theta / 2.0))
    v = bm.matrix() / half
    return half, v
