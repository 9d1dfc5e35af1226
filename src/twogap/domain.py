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

import functools
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import DegenerateRegime, OrderingViolation, RangeViolation, ValidationError

__all__ = [
    "TWO_PI",
    "e2pi",
    "ExteriorDomain",
    "BoundaryMatrix",
    "Region",
    "make_domain",
    "make_boundary_matrix",
    "classify_point",
]

TWO_PI = 2.0 * np.pi


def e2pi(x):
    """The unit phase e(x) = exp(i 2 pi x); x measured in cycles.

    Works elementwise on arrays.  Every phase in this package is a value of
    e2pi; angles in radians never appear in public interfaces.
    """
    return np.exp(1j * TWO_PI * np.asarray(x, dtype=float))


def _round_trip(w, q, x):
    """The round-trip factor 1 - q e(x) for real x, q = sqrt(1 - w^2).

    The one place it is written.  Evaluated as w^2/(1 + q) + q (1 - e(x_r)),
    x_r = x - round(x), with 1 - e(x_r) = -2i sin(pi x_r) e(x_r/2): no
    cancellation near integer x, where 1 - q e(x) would lose about
    2e-16/w^2 relative.  Elementwise on arrays.
    """
    x_r = x - np.round(x)
    return w * w / (1.0 + q) - 2j * q * np.sin(np.pi * x_r) * e2pi(x_r / 2.0)


def _co_coupling(w: float) -> float:
    """The co-coupling q = sqrt(1 - w^2) of a coupling w in [0, 1]."""
    return float(np.sqrt(max(0.0, 1.0 - w * w)))


def _real_lambda(lam) -> np.ndarray:
    """lam as a float array; ValidationError unless every value is real."""
    lam = np.asarray(lam)
    if np.iscomplexobj(lam) and np.any(lam.imag):
        raise ValidationError("lambda must be real")
    return np.asarray(lam.real, dtype=float)


def _lambda_rule(fn):
    """``fn(bm, domain, lam)`` evaluated on lam as a 1-d array; a scalar lam
    gets element 0 (last axis) of every output array.

    numpy-scalar arithmetic rounds differently from the array loops, so
    computing on 0-d values would let a scalar call differ in the last bits
    from the same lambda inside a grid.  Under this rule a scalar call is,
    bit for bit, one element of the array call.
    """

    @functools.wraps(fn)
    def wrapper(bm, domain, lam):
        lam = _real_lambda(lam)
        out = fn(bm, domain, np.atleast_1d(lam))
        return out if lam.ndim else _first(out)

    return wrapper


def _first(out):
    """Element 0 along the last axis of every array in ``out`` (an array, a
    tuple or dict of arrays, or a dataclass of them); a numpy scalar where
    that leaves no axis."""
    if isinstance(out, np.ndarray):
        return out[..., 0][()]
    if isinstance(out, tuple):
        return tuple(_first(v) for v in out)
    if isinstance(out, dict):
        return {k: _first(v) for k, v in out.items()}
    return type(out)(*(_first(getattr(out, f.name)) for f in fields(out)))


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
            raise ValidationError(f"unknown component tag {tag!r}") from None


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
        return _co_coupling(self.w)

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


def _require_coupled(bm: BoundaryMatrix, what: str):
    """DegenerateRegime unless w > 0 (``what`` names the caller)."""
    if bm.w == 0.0:
        raise DegenerateRegime(
            f"{what} requires w > 0; the decoupled model has bound states "
            "and a half-line continuum instead"
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

