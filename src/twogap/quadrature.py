"""Quadrature helpers: Gauss-Legendre panels, the periodic rule for one
period of the spectral density, closed-form oscillatory tails and the
periodized lattice sum.

Every composite Gauss-Legendre sum in the package goes through
``gauss_panels``; ``_panel_nodes`` builds its nodes and is called directly
only where one node set is shared across many evaluation points.

The oscillatory-tail and lattice-sum functions exist so that integrals over
the whole line with 1/lambda or 1/lambda^2 decay can be evaluated to ~1e-10
without astronomically wide windows: the window part is done by panels, the
remainder in closed form through the sine/cosine integrals, and fully
periodic reductions go through the classical lattice sum

    sum_{j in Z} e(j y) / (j + a) = (pi / sin(pi a)) exp(i pi a (1 - 2 {y}))

valid for non-integer y (with {y} the fractional part) and non-integer a.
Such a reduction leaves one period of the density m^-2, a Poisson kernel in
q = sqrt(1 - w^2) with poles |ln q|/(2 pi) off the real axis (unit period);
on it the N-point periodic rule of ``periodic_nodes`` converges like q^N
(Trefethen & Weideman, SIAM Review 56, 2014).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import sici

from .errors import DegenerateRegime, ValidationError

__all__ = [
    "gauss_panels",
    "periodic_nodes",
    "tail_inv1_twosided",
    "tail_inv2_twosided",
    "lattice_sum",
]


@functools.lru_cache(maxsize=None)
def _gauss_rule(n: int):
    """Order-n Gauss-Legendre nodes and weights on [-1, 1]; shared, read-only."""
    return leggauss(n)


def _panel_nodes(edges, order: int):
    """Flat nodes and weights of composite Gauss-Legendre on ``edges``."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("panel edges must be increasing")
    nodes, weights = _gauss_rule(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def gauss_panels(fn, edges, order: int = 16):
    """Composite Gauss-Legendre quadrature with panel boundaries ``edges``.

    fn must accept a flat array of nodes and return values; panels may be
    non-uniform.  Returns the scalar integral.
    """
    x, w = _panel_nodes(edges, order)
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


def tail_inv1_twosided(u, lam0: float):
    """Closed form for int_{|l| > lam0} e(u l) / l dl (principal value).

    The even (cosine) part cancels between the two rays; the result is
    2i sign(u) (pi/2 - Si(2 pi |u| lam0)), zero at u = 0.
    """
    u = np.asarray(u, dtype=float)
    sig = 2.0 * np.pi * np.abs(u) * lam0
    si, _ = sici(sig)
    return 2j * np.sign(u) * (np.pi / 2.0 - si)


def tail_inv2_twosided(u, lam0: float):
    """Closed form for int_{|l| > lam0} e(u l) / l^2 dl.

    The odd (sine) part cancels; the result is real:
    2 [cos(s lam0)/lam0 - s (pi/2 - Si(s lam0))] with s = 2 pi |u|.
    """
    u = np.asarray(u, dtype=float)
    s = 2.0 * np.pi * np.abs(u)
    si, _ = sici(s * lam0)
    return 2.0 * (np.cos(s * lam0) / lam0 - s * (np.pi / 2.0 - si))


def lattice_sum(y, a):
    """sum_j e(j y)/(j + a) for non-integer y and a (vectorized).

    Conditionally convergent (symmetric partial sums); closed form
    (pi/sin(pi a)) exp(i pi a (1 - 2 {y})).
    """
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    frac = y - np.floor(y)
    return np.pi / np.sin(np.pi * a) * np.exp(1j * np.pi * a * (1.0 - 2.0 * frac))
