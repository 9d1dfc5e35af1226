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

At w = 0 the middle interval decouples: bound states on the lattice
(psi + n)/ell plus a two-sided continuum family supported on the half-lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, Region, _real_lambda, classify_point, e2pi
from .errors import DegenerateRegime, NotDecoupled, OutOfDomain, ValidationError

__all__ = [
    "EigenCoefficients",
    "transfer_H",
    "eigen_coeffs",
    "eigen_coeffs_solve",
    "eigen_residual",
    "eigenfunction_eval",
    "eigenfunction_traces",
    "scattering_matrix",
    "scattering_matrix_routes",
    "bound_state_spectrum",
    "decoupled_eigenfunction_eval",
]


@dataclass(frozen=True)
class EigenCoefficients:
    """Coefficients of one generalized eigenfunction (b = 1 normalization).

    Fields may be scalars or arrays, matching the lambda argument.
    """

    lam: np.ndarray
    a: np.ndarray
    c: np.ndarray
    b_norm: float
    h: np.ndarray
    m: np.ndarray


def _require_coupled(bm: BoundaryMatrix, what: str):
    if bm.w == 0.0:
        raise DegenerateRegime(
            f"{what} requires w > 0; the decoupled model has bound states "
            "and a half-line continuum instead"
        )


def transfer_H(bm: BoundaryMatrix, domain: ExteriorDomain, lam):
    """Round-trip transfer factor H(lambda) = 1/(1 - q e(-psi + ell lambda))."""
    _require_coupled(bm, "transfer_H")
    lam = np.asarray(lam, dtype=float)
    return 1.0 / (1.0 - bm.q * e2pi(-bm.psi + domain.ell * lam))


def eigen_coeffs(bm: BoundaryMatrix, domain: ExteriorDomain, lam) -> EigenCoefficients:
    """Closed-form coefficients a, c plus H and the modulus m = |a| = |c|."""
    _require_coupled(bm, "eigen_coeffs")
    lam = _real_lambda(lam)
    w, q = bm.w, bm.q
    ell, gap = domain.ell, domain.gap
    a = (e2pi(bm.phi + lam) / w) * (1.0 - q * e2pi(-bm.psi + ell * lam))
    c = (e2pi(bm.phi - bm.theta - gap * lam) / w) * (1.0 - q * e2pi(bm.psi - ell * lam))
    h = 1.0 / (1.0 - q * e2pi(-bm.psi + ell * lam))
    return EigenCoefficients(lam=lam, a=a, c=c, b_norm=1.0, h=h, m=np.abs(a))


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
    h = 1.0 / (1.0 - q * complex(e2pi(-bm.psi + domain.ell * lam)))
    return EigenCoefficients(lam=lam, a=a, c=c, b_norm=1.0, h=h, m=abs(a))


def eigen_residual(bm: BoundaryMatrix, domain: ExteriorDomain, coeffs: EigenCoefficients):
    """Max absolute residual of the two matching conditions (vectorized).

    The conditions state how the unit-coefficient middle wave couples to the
    half-line amplitudes:

        a = w e(phi + lambda) - q e(theta - psi + beta lambda) c
        e(alpha lambda) = q e(psi + lambda) + w e(theta - phi + beta lambda) c
    """
    lam = np.asarray(coeffs.lam, dtype=float)
    w, q = bm.w, bm.q
    r1 = (
        w * e2pi(bm.phi + lam)
        - q * e2pi(bm.theta - bm.psi + domain.beta * lam) * coeffs.c
        - coeffs.a
    )
    r2 = (
        q * e2pi(bm.psi + lam)
        + w * e2pi(bm.theta - bm.phi + domain.beta * lam) * coeffs.c
        - e2pi(domain.alpha * lam)
    )
    return np.maximum(np.abs(r1), np.abs(r2))


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


def eigenfunction_traces(bm: BoundaryMatrix, domain: ExteriorDomain, lam: float):
    """One-sided obstacle traces of psi_lambda: (rho1, rho2).

    rho1 = (psi(1+), psi(beta+)), rho2 = (psi(0-), psi(alpha-)); the
    boundary matrix maps rho1 to rho2.
    """
    co = eigen_coeffs(bm, domain, lam)
    rho1 = np.array(
        [complex(e2pi(lam)), co.c * complex(e2pi(domain.beta * lam))], dtype=complex
    )
    rho2 = np.array(
        [complex(co.a), complex(e2pi(domain.alpha * lam))], dtype=complex
    )
    return rho1, rho2


def scattering_matrix(bm: BoundaryMatrix, domain: ExteriorDomain, lam):
    """Scattering coefficient S(lambda) = c(lambda)/a(lambda) (unimodular)."""
    co = eigen_coeffs(bm, domain, lam)
    return co.c / co.a


def scattering_matrix_routes(bm: BoundaryMatrix, domain: ExteriorDomain, lam) -> dict:
    """S(lambda) via three algebraically independent routes.

    'ratio'   : c(lambda)/a(lambda) from the closed coefficient forms
    'quotient': e(-theta - (gap+1) lambda) (1 - q e(psi - ell lambda))
                                         / (1 - q e(-psi + ell lambda))
    'split'   : direct reflection term plus the transmitted geometric
                resonance sum, e(-theta)e(-(gap+1)lambda) w^2 H(lambda)
                - q e(psi - theta) e(-beta lambda)
    """
    _require_coupled(bm, "scattering_matrix_routes")
    lam = np.asarray(lam, dtype=float)
    q, w = bm.q, bm.w
    ell, gap, beta = domain.ell, domain.gap, domain.beta
    ratio = scattering_matrix(bm, domain, lam)
    quotient = (
        e2pi(-bm.theta - (gap + 1.0) * lam)
        * (1.0 - q * e2pi(bm.psi - ell * lam))
        / (1.0 - q * e2pi(-bm.psi + ell * lam))
    )
    split = w * w * e2pi(-bm.theta - (gap + 1.0) * lam) * transfer_H(
        bm, domain, lam
    ) - q * e2pi(bm.psi - bm.theta - beta * lam)
    return {"ratio": ratio, "quotient": quotient, "split": split}


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


def decoupled_eigenfunction_eval(
    bm: BoundaryMatrix, domain: ExteriorDomain, lam: float, x, family: str
):
    """w = 0 eigenfunctions: 'bound' (middle interval) or 'continuum'.

    bound:     e(lambda x) on I_zero, zero on the half-lines; lambda must sit
               on the lattice (psi + n)/ell.
    continuum: -e(theta - psi + beta lambda) e(lambda x) on I_minus,
               e(lambda x) on I_plus, zero on I_zero.
    """
    if bm.w != 0.0:
        raise NotDecoupled(f"decoupled eigenfunctions need w = 0, got w = {bm.w}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if family == "bound":
        n = lam * domain.ell - bm.psi
        if abs(n - round(n)) > 1e-9:
            raise ValidationError(
                f"lambda = {lam} is not on the bound lattice (psi + n)/ell"
            )
    elif family != "continuum":
        raise ValidationError(f"unknown family {family!r}")
    out = np.empty(x.shape, dtype=complex)
    left_coef = -complex(e2pi(bm.theta - bm.psi + domain.beta * lam))
    for i, xi in enumerate(x):
        region = classify_point(domain, float(xi))
        if region in (Region.BARRIER_1, Region.BARRIER_2, Region.BOUNDARY):
            raise OutOfDomain(f"x = {xi} lies on a removed interval")
        wave = complex(e2pi(lam * float(xi)))
        if family == "bound":
            out[i] = wave if region is Region.I_ZERO else 0.0
        else:
            if region is Region.I_MINUS:
                out[i] = left_coef * wave
            elif region is Region.I_PLUS:
                out[i] = wave
            else:
                out[i] = 0.0
    return out[0] if scalar else out
