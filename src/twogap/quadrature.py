"""Quadrature helpers: Gauss-Legendre panels, the mapped rule for one
period of the spectral density and the window sums of the folded weight's
Fourier coefficients, which every fold oracle reads.

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

Once the two ends of a cell cancel the pole, its folded lattice sum is a
polynomial in e(xi): every fold oracle integrates it as window sums of the
Fourier coefficients M(n) = sum wq W e(n xi) of its weight W on the nodes
of this rule (``_fold_windows``).
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

# most nodes of one fold rule
MAX_FOLD_NODES = 2**20

# most elements in one row block of the phase table e(n xi)
_PHASE_BLOCK = 1 << 16


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
    ValidationError unless 0 < tol < 1 and span is finite and >= 0, and
    DegenerateRegime, before any node is built, if N > ``MAX_FOLD_NODES``.
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
        with np.errstate(over="ignore"):  # a span far past the cap sizes to inf
            log_bound = math.log(2.0 / tol) + log_m + span * log_g
            count = np.min(np.logaddexp(0.0, log_bound) / a)
    else:
        count = math.ceil(span) + 2
    if not count <= MAX_FOLD_NODES:
        raise DegenerateRegime(
            f"a fold rule for span {span:.6g} at w = {bm.w:.6g} needs {count:.3g} nodes, more than {MAX_FOLD_NODES}"
        )
    n = math.ceil(count)
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


def _fold_coefficients(xi, weights, occurring, ns):
    """M_r(n) = sum_j weights[r, j] e(n xi_j) for each n of ``ns`` and each
    row r of ``occurring``, zero in the other rows: a (rows, len(ns)) array.
    The phase table e(n xi) goes in row blocks of at most _PHASE_BLOCK
    elements, so a long lattice span costs time, not memory, each block
    times one matrix-vector product per row (a 2-D complex product pages in
    BLAS code a process may never have run)."""
    coeffs = np.zeros((len(weights), len(ns)), dtype=complex)
    block = max(1, _PHASE_BLOCK // len(xi))
    for start in range(0, len(ns), block):
        phases = e2pi(np.outer(ns[start : start + block], xi))
        for r in occurring:
            coeffs[r, start : start + block] = phases @ weights[r]
    return coeffs


def _fold_windows(xi, weights, rows, anchor, depth):
    """The window sums S0 = sum_{m=1..d} M_r(a + m) and S1 = sum_{m=1..d}
    m M_r(a + m) of ``_fold_coefficients`` for the entries of the equal-
    shaped arrays ``rows`` (r), ``anchor`` (integer a, as floats) and
    ``depth`` (int d >= 0), reading M at the distinct n the windows reach.

    With G_K = pi e(xi (K + 1/2))/sin(pi xi), the lattice sum e(xi y)
    sum_k e(k y)/(k + xi) is G_K for K = floor(y), and G_K - G_a = 2 pi i
    sum_{n=a+1..K} e(n xi) has no pole.  So a cell (ends lo, hi; value v)
    with K_lo = floor(y_lo) >= K_hi = floor(y_hi) folds to 2 pi i v S0 at
    a = K_hi, d = K_lo - K_hi, and the squared sum 2 pi i y G_K - G_K', less
    the same form in G_a, to the ramp 4 pi^2 (S1 - (y - a) S0).
    """
    starts, at = np.unique(anchor.ravel(), return_inverse=True)
    steps = np.arange(1, np.max(depth, initial=0) + 1)
    ns, where = np.unique((starts[:, None] + steps).ravel(), return_inverse=True)
    coeffs = _fold_coefficients(xi, weights, set(rows.ravel().tolist()), ns)
    window = coeffs[:, where.reshape(len(starts), len(steps))]
    s0 = np.zeros(window.shape[:-1] + (len(steps) + 1,), dtype=complex)
    s1 = np.zeros_like(s0)
    np.cumsum(window, axis=-1, out=s0[..., 1:])
    np.cumsum(steps * window, axis=-1, out=s1[..., 1:])
    pick = rows, at.reshape(anchor.shape), depth
    return s0[pick], s1[pick]
