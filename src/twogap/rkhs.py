"""First-order Sobolev kernels and the boundary form on the exterior domain.

On each component the space of absolutely continuous functions with
square-integrable derivative carries the inner product

    <f, g> = int (f conj(g) + f' conj(g')),

conjugate on the SECOND slot throughout this module (the packet module
conjugates the first; the boundary-form algebra below reads cleanest this
way, so the two conventions are kept deliberately and documented here).
Point evaluation is reproduced by explicit kernels: cosh ratios at the
endpoints of a finite interval, pure exponentials on the half-lines.  The
interior cosh combination implemented here reproduces exactly the span of
e^y and e^{-y} (and only that span) — kept in that printed form on purpose;
the test suite pins down what it does and does not reproduce.

Integrating the momentum operator -i d/dx by parts over all three
components leaves a sesquilinear boundary form in the four obstacle traces
(f(0), f(1), f(alpha), f(beta)).  A boundary matrix B ties the traces at
the left ends of the gaps to those at the right ends; unitarity of B is
exactly the vanishing of the form on the constrained pairs, which is how
the selfadjointness of the extension shows up at the trace level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain
from .errors import ValidationError
from .quadrature import gauss_panels

__all__ = [
    "KernelSpec",
    "BoundaryTrace",
    "kernel_endpoint",
    "kernel_interior",
    "h1_inner",
    "point_eval_via_kernel",
    "boundary_form",
    "trace_condition_residuals",
    "momentum_defect",
]


@dataclass(frozen=True)
class KernelSpec:
    """One component interval; endpoints may be -inf / +inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValidationError(f"empty interval ({self.lo}, {self.hi})")
        if np.isinf(self.lo) and np.isinf(self.hi):
            raise ValidationError("need at least one finite endpoint")


def kernel_endpoint(spec: KernelSpec, which: str):
    """Reproducing kernel (k, k') of point evaluation at a finite endpoint.

    Finite interval (a, b):  k_a(y) = cosh(b - y)/sinh(b - a) and
    k_b(y) = cosh(y - a)/sinh(b - a).  Half-lines: e^{y - b} at the right
    end of (-inf, b), e^{a - y} at the left end of (a, inf).
    """
    a, b = spec.lo, spec.hi
    if which == "left":
        if np.isinf(a):
            raise ValidationError("no kernel at an infinite endpoint")
        if np.isinf(b):
            return (lambda y: np.exp(a - np.asarray(y, float)),
                    lambda y: -np.exp(a - np.asarray(y, float)))
        s = np.sinh(b - a)
        return (lambda y: np.cosh(b - np.asarray(y, float)) / s,
                lambda y: -np.sinh(b - np.asarray(y, float)) / s)
    if which == "right":
        if np.isinf(b):
            raise ValidationError("no kernel at an infinite endpoint")
        if np.isinf(a):
            return (lambda y: np.exp(np.asarray(y, float) - b),
                    lambda y: np.exp(np.asarray(y, float) - b))
        s = np.sinh(b - a)
        return (lambda y: np.cosh(np.asarray(y, float) - a) / s,
                lambda y: np.sinh(np.asarray(y, float) - a) / s)
    raise ValidationError(f"which must be 'left' or 'right', got {which!r}")


def kernel_interior(spec: KernelSpec, x: float):
    """Interior cosh combination at x (finite intervals only):

        k_x(y) = [sinh(b-x) cosh(b-y) + sinh(x-a) cosh(y-a)] / sinh^2(b-a).

    Reproduces <f, k_x> = f(x) exactly for f in span{e^y, e^{-y}} and acts
    as the boundary-value interpolant
    [sinh(b-x) f(a) + sinh(x-a) f(b)]/sinh(b-a) on everything else.
    """
    a, b = spec.lo, spec.hi
    if np.isinf(a) or np.isinf(b):
        raise ValidationError("interior combination needs a finite interval")
    if not a < x < b:
        raise ValidationError(f"x={x} outside ({a}, {b})")
    s2 = np.sinh(b - a) ** 2
    ca, cb = np.sinh(b - x) / s2, np.sinh(x - a) / s2

    def k(y):
        y = np.asarray(y, float)
        return ca * np.cosh(b - y) + cb * np.cosh(y - a)

    def dk(y):
        y = np.asarray(y, float)
        return -ca * np.sinh(b - y) + cb * np.sinh(y - a)

    return k, dk


# how far into a half-line the quadrature reaches: test functions and
# kernels all decay at least like e^{-|y|}, so 2*40 nats is plenty
_HALFLINE_DEPTH = 40.0
# panels per component (order-16 Gauss) for the inner product, and so for
# point evaluation, and for the momentum defect
_INNER_PANELS = 64
_DEFECT_PANELS = 96


def _quad_edges(spec: KernelSpec, panels: int):
    a, b = spec.lo, spec.hi
    if np.isinf(a):
        a = b - _HALFLINE_DEPTH
    if np.isinf(b):
        b = a + _HALFLINE_DEPTH
    return np.linspace(a, b, panels + 1)


def h1_inner(f, df, g, dg, spec: KernelSpec):
    """<f, g> = int_spec (f conj(g) + f' conj(g')) by composite Gauss panels."""
    return complex(
        gauss_panels(
            lambda y: f(y) * np.conj(g(y)) + df(y) * np.conj(dg(y)),
            _quad_edges(spec, _INNER_PANELS),
        )
    )


def point_eval_via_kernel(f, df, spec: KernelSpec, which_or_x):
    """f evaluated through the kernel pairing instead of directly."""
    if isinstance(which_or_x, str):
        k, dk = kernel_endpoint(spec, which_or_x)
    else:
        k, dk = kernel_interior(spec, float(which_or_x))
    return h1_inner(f, df, k, dk, spec)


# ----------------------------------------------------------------------
# boundary traces and the trace-level selfadjointness condition
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryTrace:
    """Limits of a function at the four obstacle endpoints.

    Each field is one complex number, or an array of L of them: L traces
    stacked, e.g. of the eigenfunctions at L lambdas.
    """

    at0: complex
    at1: complex
    at_alpha: complex
    at_beta: complex

    @property
    def gap_left(self) -> np.ndarray:
        """Traces at the left ends of the two gaps: (f(1), f(beta)), shape
        (2,) or (2, L)."""
        return np.array([self.at1, self.at_beta], dtype=complex)

    @property
    def gap_right(self) -> np.ndarray:
        """Traces at the right ends of the two gaps: (f(0), f(alpha)), shape
        (2,) or (2, L)."""
        return np.array([self.at0, self.at_alpha], dtype=complex)


def boundary_form(tf: BoundaryTrace, tg: BoundaryTrace) -> complex:
    """f(1) conj(g(1)) - f(0) conj(g(0)) + f(beta) conj(g(beta))
    - f(alpha) conj(g(alpha)); equals  <gl_f, gl_g> - <gr_f, gr_g>  in C^2.

    Integration by parts gives <pf, g> - <f, pg> = i * boundary_form, so
    the form vanishes on pairs whose gap_right traces are B gap_left with
    one unitary B.  A complex number for single traces; for traces stacked
    (2, L), the L forms as an array.
    """
    form = np.sum(np.conj(tg.gap_left) * tf.gap_left, axis=0) - np.sum(
        np.conj(tg.gap_right) * tf.gap_right, axis=0
    )
    return complex(form) if form.ndim == 0 else form


def trace_condition_residuals(bm: BoundaryMatrix, tr: BoundaryTrace):
    """Residuals of the trace condition in its two equivalent arrangements.

    direct:  |B gap_left - gap_right|, inverse: |gap_left - B* gap_right|.
    Unitarity makes the two numbers equal to rounding; both are zero exactly
    on the selfadjoint domain.  Two floats for a single trace; for traces
    stacked (2, L), two arrays of L residuals.
    """
    mat = bm.matrix()
    gl, gr = tr.gap_left, tr.gap_right
    stacked = gl.ndim == 2
    gl, gr = gl.reshape(2, -1), gr.reshape(2, -1)  # a column per trace

    def apply(m, v):  # m @ v column by column, rounded alike for any number of columns
        return m[:, :1] * v[:1] + m[:, 1:] * v[1:]

    direct = np.linalg.norm(apply(mat, gl) - gr, axis=0)
    inverse = np.linalg.norm(gl - apply(mat.conj().T, gr), axis=0)
    if stacked:
        return direct, inverse
    return float(direct[0]), float(inverse[0])


def momentum_defect(f, df, g, dg, domain: ExteriorDomain) -> complex:
    """<pf, g> - <f, pg> over all three components, by quadrature.

    p = -i d/dx, conjugate-second inner products.  The result should equal
    i * boundary_form of the two trace vectors; callables must decay on the
    half-lines (the quadrature reaches ~40 units beyond the finite edges).
    """
    total = 0.0 + 0.0j
    for lo, hi in domain.components:
        total += gauss_panels(
            lambda y: -1j * (df(y) * np.conj(g(y)) + f(y) * np.conj(dg(y))),
            _quad_edges(KernelSpec(lo, hi), _DEFECT_PANELS),
        )
    return complex(total)
