"""Generalized eigenfunctions and the scattering coefficient.

For coupling w > 0 the (b = 1 normalized) generalized eigenfunction at real
frequency lambda is

    psi_lambda = ( a(lambda) 1_Iminus + 1_Izero + c(lambda) 1_Iplus ) e(lambda x)

with the two coefficient functions (ell = alpha - 1, q = sqrt(1 - w^2))

    a(lambda) = w^-1 e(phi)        e(lambda)               (1 - q e(-psi + ell lambda))
    c(lambda) = w^-1 e(phi-theta)  e(-(beta-alpha) lambda) (1 - q e( psi - ell lambda))

so |a| = |c| =: m(lambda), bounded between w/2 and 2/w.  The transfer factor

    H(lambda) = 1 / (1 - q e(-psi + ell lambda))

collects the round-trip geometric series inside the middle interval, and
the scattering coefficient is the unimodular quotient S(lambda) = c/a.
All three read one round-trip factor D = 1 - q e(ell lambda - psi), from
``domain._round_trip``, which writes it without cancellation near the
spikes: a carries D, c carries conj(D) (for real x, 1 - q e(-x) is
conj(1 - q e(x))), and H = 1/D.  ``eigen_coeffs_solve`` and
``eigen_residual`` do not read it: they are the independent routes.

At w = 0 the middle interval decouples: bound states on the lattice
(psi + n)/ell plus a two-sided continuum family supported on the half-lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, Region, classify_point, e2pi
from .domain import _lambda_rule, _require_coupled, _round_trip
from .errors import NotDecoupled, OutOfDomain, ValidationError

__all__ = [
    "EigenCoefficients",
    "transfer_H",
    "eigen_coeffs",
    "eigen_coeffs_solve",
    "eigen_residual",
    "eigenfunction_eval",
    "eigenfunction_traces",
    "scattering_matrix_routes",
    "bound_state_spectrum",
]


@dataclass(frozen=True)
class EigenCoefficients:
    """Coefficients of the generalized eigenfunctions (b = 1 normalization).

    Fields are arrays over a lambda array, or numpy scalars for a scalar
    lambda; a scalar call equals, bit for bit, its element of the array call.
    """

    lam: np.ndarray
    a: np.ndarray
    c: np.ndarray
    h: np.ndarray
    m: np.ndarray


def transfer_H(bm: BoundaryMatrix, domain: ExteriorDomain, lam):
    """Round-trip transfer factor H(lambda) = 1/(1 - q e(-psi + ell lambda))."""
    return eigen_coeffs(bm, domain, lam).h


@_lambda_rule
def eigen_coeffs(bm: BoundaryMatrix, domain: ExteriorDomain, lam) -> EigenCoefficients:
    """Closed-form coefficients a, c plus H and the modulus m = |a| = |c|."""
    _require_coupled(bm, "eigen_coeffs")
    w = bm.w
    inv_h = _round_trip(w, bm.q, domain.ell * lam - bm.psi)  # 1 / H
    a = (e2pi(bm.phi + lam) / w) * inv_h
    # 1 - q e(-x) = conj(1 - q e(x)) for real x
    c = (e2pi(bm.phi - bm.theta - domain.gap * lam) / w) * np.conj(inv_h)
    return EigenCoefficients(lam=lam, a=a, c=c, h=1.0 / inv_h, m=np.abs(a))


def eigen_coeffs_solve(bm: BoundaryMatrix, domain: ExteriorDomain, lam: float) -> EigenCoefficients:
    """Independent route: solve the 2x2 boundary linear system for (a, c).

    Uses the raw matching conditions rather than the closed forms; intended
    as a cross-check oracle (scalar lambda only).
    """
    _require_coupled(bm, "eigen_coeffs_solve")
    lam = float(lam)
    w, q = bm.w, bm.q
    beta = domain.beta
    mat = np.array(
        [
            [1.0, q * complex(e2pi(bm.theta - bm.psi + beta * lam))],
            [0.0, w * complex(e2pi(bm.theta - bm.phi + beta * lam))],
        ],
        dtype=complex,
    )
    rhs = np.array(
        [
            w * complex(e2pi(bm.phi + lam)),
            complex(e2pi(domain.alpha * lam)) - q * complex(e2pi(bm.psi + lam)),
        ],
        dtype=complex,
    )
    a, c = np.linalg.solve(mat, rhs)
    h = transfer_H(bm, domain, lam)  # not part of the solve: the closed form
    return EigenCoefficients(lam=lam, a=a, c=c, h=h, m=abs(a))


def eigen_residual(bm: BoundaryMatrix, domain: ExteriorDomain, coeffs: EigenCoefficients):
    """Max absolute residual of the two matching conditions (vectorized).

    The conditions state how the unit-coefficient middle wave couples to the
    half-line amplitudes:

        a = w e(phi + lambda) - q e(theta - psi + beta lambda) c
        e(alpha lambda) = q e(psi + lambda) + w e(theta - phi + beta lambda) c

    Computed on 1-d arrays, so (as under ``domain._lambda_rule``) the
    residual of scalar coefficients is, bit for bit, its element of the
    array call.
    """
    lam = np.atleast_1d(np.asarray(coeffs.lam, dtype=float))
    a, c = np.atleast_1d(coeffs.a), np.atleast_1d(coeffs.c)
    w, q = bm.w, bm.q
    r1 = (
        w * e2pi(bm.phi + lam)
        - q * e2pi(bm.theta - bm.psi + domain.beta * lam) * c
        - a
    )
    r2 = (
        q * e2pi(bm.psi + lam)
        + w * e2pi(bm.theta - bm.phi + domain.beta * lam) * c
        - e2pi(domain.alpha * lam)
    )
    out = np.maximum(np.abs(r1), np.abs(r2))
    return out if np.ndim(coeffs.lam) else out[0]


def eigenfunction_eval(bm: BoundaryMatrix, domain: ExteriorDomain, lam: float, x):
    """psi_lambda(x) for x in the open domain; obstacle points raise.

    Vectorized over x: points on the removed intervals (or their boundary)
    raise OutOfDomain rather than silently returning a value.
    """
    _require_coupled(bm, "eigenfunction_eval")
    co = eigen_coeffs(bm, domain, lam)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty(x.shape, dtype=complex)
    for i, xi in enumerate(x):
        region = classify_point(domain, float(xi))
        if region is Region.I_MINUS:
            coef = co.a
        elif region is Region.I_ZERO:
            coef = 1.0
        elif region is Region.I_PLUS:
            coef = co.c
        else:
            raise OutOfDomain(f"x = {xi} lies on a removed interval")
        out[i] = coef * complex(e2pi(lam * float(xi)))
    return out[0] if scalar else out


@_lambda_rule
def eigenfunction_traces(bm: BoundaryMatrix, domain: ExteriorDomain, lam):
    """One-sided obstacle traces of psi_lambda: (rho1, rho2).

    rho1 = (psi(1+), psi(beta+)), rho2 = (psi(0-), psi(alpha-)); the
    boundary matrix maps rho1 to rho2.  Each has shape (2,) for a scalar
    lambda and (2, L) for L lambdas, column i bit for bit the scalar call
    at lambda_i.
    """
    co = eigen_coeffs(bm, domain, lam)
    rho1 = np.stack([e2pi(lam), co.c * e2pi(domain.beta * lam)])
    rho2 = np.stack([co.a, e2pi(domain.alpha * lam)])
    return rho1, rho2


@_lambda_rule
def scattering_matrix_routes(bm: BoundaryMatrix, domain: ExteriorDomain, lam) -> dict:
    """S(lambda) via three algebraically independent routes.

    'ratio'   : c(lambda)/a(lambda) from the closed coefficient forms
    'quotient': e(-theta - (gap+1) lambda) (1 - q e(psi - ell lambda))
                                         / (1 - q e(-psi + ell lambda)),
                that is e(-theta - (gap+1) lambda) H / conj(H)
    'split'   : direct reflection term plus the transmitted geometric
                resonance sum, e(-theta)e(-(gap+1)lambda) w^2 H(lambda)
                - q e(psi - theta) e(-beta lambda)
    """
    _require_coupled(bm, "scattering_matrix_routes")
    co = eigen_coeffs(bm, domain, lam)  # one call gives a, c and H
    q, w = bm.q, bm.w
    delay = e2pi(-bm.theta - (domain.gap + 1.0) * lam)
    quotient = delay * co.h / np.conj(co.h)  # conj(1/H) / (1/H)
    split = w * w * delay * co.h - q * e2pi(bm.psi - bm.theta - domain.beta * lam)
    return {"ratio": co.c / co.a, "quotient": quotient, "split": split}


def _route_spread(routes: dict):
    """Largest pairwise gap between the three routes of S(lambda), per lambda."""
    ratio, quotient, split = routes["ratio"], routes["quotient"], routes["split"]
    return np.maximum.reduce([abs(ratio - quotient), abs(ratio - split), abs(quotient - split)])


def bound_state_spectrum(
    bm: BoundaryMatrix, domain: ExteriorDomain, n_lo: int, n_hi: int
) -> np.ndarray:
    """Decoupled (w = 0) point spectrum (psi + n)/ell for n in [n_lo, n_hi)."""
    if bm.w != 0.0:
        raise NotDecoupled(f"bound states need w = 0, got w = {bm.w}")
    if n_hi <= n_lo:
        raise ValidationError("need n_lo < n_hi")
    n = np.arange(int(n_lo), int(n_hi))
    return (bm.psi + n) / domain.ell

