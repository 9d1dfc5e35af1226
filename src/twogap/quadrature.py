"""Quadrature helpers: Gauss-Legendre panels, the mapped rule for one
period of the spectral density and the node sums of the simple-pole
lattice sum.

Every composite Gauss-Legendre sum in the package goes through
``gauss_panels``.

Integrals over the whole line against the density m^-2 are folded onto one
period: substituting lambda = (xi + k)/ell and summing over k turns each
1/lambda or 1/lambda^2 factor into the classical lattice sum

    sum_{k in Z} e(k y) / (k + a) = (pi / sin(pi a)) exp(i pi a (1 - 2 {y}))

valid for non-integer y (with {y} the fractional part) and non-integer a,
or its a-derivative.  What remains is one period of m^-2, a Poisson kernel
in q = sqrt(1 - w^2) whose spike at xi = psi sharpens as w -> 0: its poles
sit about w^2/(4 pi) off the real axis, so a plain periodic rule would need
O(1/w^2) nodes.  ``fold_nodes`` substitutes the Moebius map

    e^{i theta} = e^{i theta_0} (e^{i phi} + r) / (1 + r e^{i phi}),
    theta = 2 pi xi, theta_0 = 2 pi psi,

which clusters the nodes at the spike, and takes the midpoint rule in phi
(Hale & Trefethen, "New quadrature formulas from conformal maps", SINUM 46,
2008; Trefethen & Weideman, SIAM Review 56, 2014).  With r at the hyperbolic
midpoint between 0 and q the density becomes the Poisson kernel of r in phi,
the poles of the density and of the map both sit ln(1/r) ~ w off the real
phi axis, and N grows like ln(1/tol)/w.

The point-value oracles (``semigroup``'s, the adjoint transform) read the
simple-pole sum through ``_node_sums``.  The sigma-pairings read the
a-derivative: once the cell ends' pole parts cancel, it is a polynomial in
e(xi), so ``transform`` integrates it as ramp sums over the Fourier
coefficients sum wq W e(n xi) of the weight W on the nodes of this rule.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .domain import e2pi
from .errors import DegenerateRegime, ValidationError

__all__ = [
    "gauss_panels",
    "fold_nodes",
]

# error target of the mapped rule over a folded period
_FOLD_TOL = 1e-13

# strip half-widths tried when sizing the mapped rule, in units of ln(1/r)
_STRIP_FRACTIONS = np.linspace(0.01, 0.99, 99)


# the order of every Gauss-Legendre panel
_GAUSS_ORDER = 16


@functools.cache
def _gauss_rule():
    """Nodes and weights on [-1, 1], built on first use: built at import,
    they would cost every process about 1 MB of peak RSS (LAPACK)."""
    return leggauss(_GAUSS_ORDER)


def gauss_panels(fn, edges):
    """Composite Gauss-Legendre quadrature of order 16 per panel, with panel
    boundaries ``edges``.

    fn must accept a flat array of nodes and return values; panels may be
    non-uniform.  Returns the scalar integral.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("panel edges must be increasing")
    if not np.all(np.isfinite(edges)):
        raise ValidationError("panel edges must be finite")
    nodes, weights = _gauss_rule()
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return np.sum(w * fn(x))


def fold_nodes(bm, tol: float = _FOLD_TOL, span: float = 0.0):
    """Nodes xi on (-1/2, 1/2] and weights of the mapped midpoint rule for
    one unit period of the density m^-2 with its spike at xi = psi.

    The weights integrate dxi, so the density itself is left to the caller.
    r is the hyperbolic midpoint (1 + r)/(1 - r) = K = sqrt((1 + q)/(1 - q))
    = (1 + q)/w; the Jacobian dtheta/dphi is K / (K^2 cos^2(phi/2) +
    sin^2(phi/2)).  The phi grid is rotated so that xi = 0, the removable
    pole of the lattice sums, lies midway between two nodes.

    Sizing.  On the strip |Im phi| < a (a < ln(1/r)) the mapped density is
    bounded by M(a) = (1 - r^2) / ((1 - r e^a)(1 - r e^-a)) and a phase
    e(s xi) with |s| <= span by g(a)^span, g(a) = (e^a - r)/(1 - r e^a),
    which tends to 1 + K a as a -> 0 and blows up at the map's pole.  The
    midpoint rule then errs by at most 2 M g^span / (e^{a N} - 1) times the
    scale of the smooth factor (Trefethen & Weideman, Thm 3.2); N is the
    least count that meets tol at the best a of ``_STRIP_FRACTIONS``.  At
    q = 0 (w = 1) the map is a rotation and the integrand a trigonometric
    polynomial of degree at most span, so N = ceil(span) + 2 is exact.
    ValidationError unless 0 < tol < 1 and span is finite and >= 0.
    """
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"the fold rule needs a tolerance in (0, 1), got tol={tol}")
    if not (math.isfinite(span) and span >= 0.0):
        raise ValidationError(f"the fold rule needs a finite span >= 0, got span={span}")
    q = bm.q
    if not 0.0 <= q < 1.0:
        raise DegenerateRegime(f"the fold rule needs 0 <= q < 1 (w > 0), got q={q}")
    k = (1.0 + q) / bm.w
    if q > 0.0:
        rim = 2.0 * math.atanh(bm.w / (1.0 + q))  # ln(1/r)
        a = _STRIP_FRACTIONS * rim
        near = -np.expm1(a - rim)  # 1 - r e^a
        far = -np.expm1(-a - rim)  # 1 - r e^-a
        log_m = math.log(-math.expm1(-2.0 * rim)) - np.log(near * far)
        log_g = a + np.log(far / near)
        log_bound = math.log(2.0 / tol) + log_m + span * log_g
        n = math.ceil(np.min(np.logaddexp(0.0, log_bound) / a))
    else:
        n = math.ceil(span) + 2
    # phi of xi = 0 (theta - theta_0 = -2 pi psi), then a grid straddling it;
    # phi/2 is taken into [-pi/2, pi/2], so xi - psi keeps full relative
    # precision near the spike
    pole = 2.0 * math.atan2(-k * math.sin(math.pi * bm.psi), math.cos(math.pi * bm.psi))
    half = 0.5 * pole + math.pi * (np.arange(n) + 0.5) / n
    half -= math.pi * np.round(half / math.pi)
    cos, sin = np.cos(half), np.sin(half)
    xi = bm.psi + np.arctan2(sin, k * cos) / math.pi
    xi -= np.ceil(xi - 0.5)
    return xi, k / (n * (k * k * cos * cos + sin * sin))


def _node_sums(xi, wq, lattice):
    """S0(K) = sum_j W_j e(xi_j K) and S1(K) = sum_j W_j pi cot(pi xi_j)
    (e(xi_j K) - e(xi_j K0)), K0 the least K, for each integer K of
    ``lattice`` and node weights W = ``wq``: the columns of a (K, 2) array.
    As e(xi y) sum_k e(k y)/(k + xi - n) = pi e(xi (K + 1/2)) e(n {y})
    / sin(pi xi) for K = floor(y), a cell end at y reads S1(K) + i pi S0(K)
    and a term common to all K, which the opposite values of the two ends
    of a cell cancel; without the K0 term the pole of cot at xi = 0 never
    enters, as each e(xi_j K0) expm1(i 2 pi xi_j (K - K0)) is of order xi_j."""
    base = e2pi(lattice[:1, None] * xi)
    step = np.expm1(2j * np.pi * np.outer(lattice - lattice[:1], xi))
    s0 = (base + base * step) @ wq
    s1 = (base * step) @ (wq * np.pi / np.tan(np.pi * xi))
    return np.stack([s0, s1], axis=1)
