"""Quadrature helpers: Gauss-Legendre panels, the periodic rule for one
period of the spectral density and the periodized lattice sums.

Every composite Gauss-Legendre sum in the package goes through
``gauss_panels``.

Integrals over the whole line against the density m^-2 are folded onto one
period: substituting lambda = (xi + k)/ell and summing over k turns each
1/lambda or 1/lambda^2 factor into the classical lattice sum

    sum_{k in Z} e(k y) / (k + a) = (pi / sin(pi a)) exp(i pi a (1 - 2 {y}))

valid for non-integer y (with {y} the fractional part) and non-integer a,
or its a-derivative.  What remains is one period of m^-2, a Poisson kernel
in q = sqrt(1 - w^2) with poles |ln q|/(2 pi) off the real axis (unit
period); on it the N-point periodic rule of ``periodic_nodes`` converges
like q^N (Trefethen & Weideman, SIAM Review 56, 2014).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateRegime, ValidationError

__all__ = [
    "gauss_panels",
    "periodic_nodes",
    "lattice_sum",
]

# error target of the periodic rule over a folded period
_FOLD_TOL = 1e-13


@functools.lru_cache(maxsize=None)
def _gauss_rule(n: int):
    """Order-n Gauss-Legendre nodes and weights on [-1, 1]; shared, read-only."""
    return leggauss(n)


def gauss_panels(fn, edges, order: int = 16):
    """Composite Gauss-Legendre quadrature with panel boundaries ``edges``.

    fn must accept a flat array of nodes and return values; panels may be
    non-uniform.  Returns the scalar integral.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("panel edges must be increasing")
    nodes, weights = _gauss_rule(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return np.sum(w * fn(x))


def periodic_nodes(q: float, tol: float, span: float = 0.0):
    """Nodes and weights of the N-point midpoint rule on [0, 1).

    For a 1-periodic integrand analytic in the strip |Im xi| < |ln q|/(2 pi),
    such as the unit-period density m^-2, the rule errs by about q^N.  A
    phase e(s xi) with |s| <= span grows by q^-span across that strip, so
    N = ceil(ln(tol)/ln(q) + span) + 1, and N = ceil(span) + 2 at q = 0,
    where the integrand is a trigonometric polynomial.  On the bare density
    (span 0) the error is at most 2 q^N / (1 - q^N) times its mean.
    """
    if not 0.0 <= q < 1.0:
        raise DegenerateRegime(f"the periodic rule needs 0 <= q < 1 (w > 0), got q={q}")
    if q > 0.0:
        n = math.ceil(math.log(tol) / math.log(q) + span) + 1
    else:
        n = math.ceil(span) + 2
    return (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n)


def lattice_sum(y, a):
    """sum_j e(j y)/(j + a) for non-integer y and a (vectorized).

    Conditionally convergent (symmetric partial sums); closed form
    (pi/sin(pi a)) exp(i pi a (1 - 2 {y})).
    """
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    frac = y - np.floor(y)
    return np.pi / np.sin(np.pi * a) * np.exp(1j * np.pi * a * (1.0 - 2.0 * frac))


# Taylor coefficients of (u - sin u)/u^3 in powers of u^2: 14 terms reach
# full precision for |u| <= pi, the widest argument the lattice rests pass
_U_MINUS_SIN = [(-1) ** k / math.factorial(2 * k + 3) for k in range(14)]


def _u_minus_sin(u):
    """u - sin(u) to full relative precision for |u| <= pi, by Horner's rule
    on its Taylor series (no cancellation near u = 0)."""
    u = np.asarray(u, dtype=float)
    u2 = u * u
    series = np.full_like(u, _U_MINUS_SIN[-1])
    for c in _U_MINUS_SIN[-2::-1]:
        series *= u2
        series += c
    return series * u2 * u


def _lattice_sum_rest(y, xi):
    """sum_{k != 0} e(k y)/(k + xi): ``lattice_sum`` less its k = 0 term 1/xi,
    for 0 < |xi| <= 1/2, with the pole removed analytically.

    With u = pi xi and s = 1 - 2 {y} it equals
    pi (u - sin u - 2 u sin^2(u s / 2) + i u sin(u s)) / (u sin u).
    """
    u = np.pi * np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    s = 1.0 - 2.0 * (y - np.floor(y))
    num = _u_minus_sin(u) - 2.0 * u * np.sin(0.5 * u * s) ** 2 + 1j * u * np.sin(u * s)
    return np.pi * num / (u * np.sin(u))


def _lattice_sum2_rest(y, xi):
    """sum_{k != 0} e(k y)/(k + xi)^2 for 0 < |xi| <= 1/2, pole removed.

    The full sum, -d/dxi ``lattice_sum``, is pi^2 e^{i u s} (cos u - i s sin u)
    / sin^2 u (u = pi xi, s = 1 - 2 {y}); product-to-sum identities and
    sin x = x - (x - sin x) leave terms of order u^2 (real) and u^3 (imag).
    """
    u = np.pi * np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    s = 1.0 - 2.0 * (y - np.floor(y))
    d = _u_minus_sin(u)
    re = (
        d * (2.0 * u - d) / (u * u)
        - (1.0 + s) * np.sin(0.5 * u * (1.0 - s)) ** 2
        - (1.0 - s) * np.sin(0.5 * u * (1.0 + s)) ** 2
    )
    im = 0.5 * (
        (1.0 + s) * _u_minus_sin(u * (1.0 - s)) - (1.0 - s) * _u_minus_sin(u * (1.0 + s))
    )
    return np.pi**2 * (re + 1j * im) / np.sin(u) ** 2
