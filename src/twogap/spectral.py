"""Spectral data of the coupled model: density, its Fourier series, and the
decoupled limit diagnostics.

For w > 0 the spectrum is purely absolutely continuous with density (with
respect to Lebesgue measure in lambda)

    rho(lambda) = m(lambda)^-2
               = (1 - q^2) / (1 - 2 q cos(2 pi (ell lambda - psi)) + q^2)
               = w^2 / |1 - q e(ell lambda - psi)|^2,

a Poisson-kernel profile in the periodic variable ell lambda - psi with
q = sqrt(1 - w^2).  Its mean over one period 1/ell is exactly 1, and its
Fourier coefficients on the lattice are a_k = q^|k| e(-k psi).

As w -> 0 the density concentrates at the lattice points (psi + n)/ell and
the measure converges to Lebesgue-plus-comb; the diagnostic here measures
that concentration.  At w = 0 the model itself is decoupled: the measure
splits into an absolutely continuous half-line part and atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, _real_lambda, _require_coupled, _round_trip, make_boundary_matrix
from .errors import ValidationError
from .multipliers import make_multiplier
from .quadrature import fold_nodes

__all__ = [
    "SpectralDensity",
    "FourierCoefficientTable",
    "density",
    "period_integral",
    "fourier_coeffs",
    "comb_limit_diagnostic",
]


def density(bm: BoundaryMatrix, domain: ExteriorDomain, lam):
    """Spectral density m(lambda)^-2; requires w > 0.

    Evaluated as w^2 / |1 - q e(ell lambda - psi)|^2, the round trip read
    from ``domain._round_trip``: no cancellation near the spikes, where
    1 - 2 q cos + q^2 would lose about 2e-16 / w^4 relative.  |D|^2 is
    written as re*re + im*im: a float64 scalar ``** 2`` goes through pow and
    can differ by one ulp from the array square, which would break the
    lambda rule.
    """
    _require_coupled(bm, "density")
    lam = _real_lambda(lam)
    d = _round_trip(bm.w, bm.q, domain.ell * lam - bm.psi)
    return bm.w * bm.w / (d.real * d.real + d.imag * d.imag)


@dataclass(frozen=True)
class SpectralDensity:
    """Callable wrapper holding the density together with its invariants."""

    bm: BoundaryMatrix
    domain: ExteriorDomain

    @property
    def period(self) -> float:
        return 1.0 / self.domain.ell

    def __call__(self, lam):
        return density(self.bm, self.domain, lam)

    def bounds(self):
        """(min, max) of the density: w^2/(1+q)^2 ... w^2/(1-q)^2,
        with 1 - q = w^2 / (1 + q) as in ``density``."""
        q = self.bm.q
        w2 = self.bm.w * self.bm.w
        return w2 / (1.0 + q) ** 2, w2 / (w2 / (1.0 + q)) ** 2


def period_integral(bm: BoundaryMatrix, domain: ExteriorDomain) -> float:
    """Integral of the density over one period (exactly 1/ell), to 1e-12.

    On the nodes of ``fold_nodes`` the density times the map's Jacobian is
    the Poisson kernel of r, not a constant, so this is a check of the rule
    and not an identity.  The N-point midpoint rule errs on that kernel by
    2 r^N / (1 - r^N) of the mean, below the strip bound 2 M(a) / (e^{aN} - 1)
    that sizes N, so asking for tol = 5e-13 ell keeps the error below 5e-13
    of 1/ell.  The rest is for rounding: ``density`` uses a cancellation-free
    form and rounds to a few ulp relative at any w > 0.
    """
    xi, wts = fold_nodes(bm, 5e-13 * domain.ell)
    return float(np.sum(wts * density(bm, domain, xi / domain.ell))) / domain.ell


@dataclass(frozen=True)
class FourierCoefficientTable:
    """Density Fourier coefficients a_k = q^|k| e(-k psi) for |k| <= K.

    a_k is z^k for k >= 0 and conj(z)^|k| for k < 0, with z = q e(-psi);
    ``tail`` bounds the coefficients left out, and ``total`` adds them.
    """

    k: np.ndarray
    values: np.ndarray
    step: float
    tail: float
    z: complex

    def total(self) -> complex:
        """sum_k a_k over all k: the listed coefficients plus the exact
        remainder sum_{|k| > K} a_k = 2 Re(z^(K+1) / (1 - z))."""
        rest = self.z ** (int(self.k[-1]) + 1) / (1.0 - self.z)
        return complex(np.sum(self.values)) + 2.0 * rest.real


def fourier_coeffs(
    bm: BoundaryMatrix, domain: ExteriorDomain, tol: float = 1e-12
) -> FourierCoefficientTable:
    """Coefficient table of the density in the periodic lattice variable.

    The table is the density window of ``make_multiplier`` at tolerance
    tol: the ``m_squared_inv`` coefficients of the one generator on the
    smallest window |k| <= K whose geometric tail bound 2 q^(K+1)/(1-q) is
    at most tol, on the lattice step alpha - 1; ``total`` adds the exact
    remainder.  DegenerateRegime when K would exceed 2**20 terms on each
    side (w below about 1e-2 at the default tol).  Its arrays are the
    cached window's own and are read-only.
    """
    _require_coupled(bm, "fourier_coeffs")
    m = make_multiplier(bm, domain, tol)
    return FourierCoefficientTable(k=m.indices, values=m.coeffs, step=domain.ell, tail=m.tail, z=bm.b_entry)


def comb_limit_diagnostic(
    domain: ExteriorDomain,
    w_sequence,
    window_width: float,
):
    """Concentration of the density near one lattice point as w decreases.

    For each w, integrates the density over a window of the given width
    centered at a density peak, and reports the per-period total (always
    1/ell) and the off-window remainder; every peak (psi + n)/ell carries
    the same mass, so it depends on q and the width only.  The window mass must
    increase toward the full per-period mass as w -> 0 (tested as a trend,
    not a tolerance).

    The window integral uses the exact antiderivative
    2 arctan((1+q)/(1-q) tan(s/2)) of the periodized density; adaptive
    quadrature would stall on the near-comb spikes (height ~ 4/w^2, width
    ~ w^2) that are the whole point of this diagnostic.
    """
    if not (0.0 < window_width < 1.0 / domain.ell):
        raise ValidationError("window width must be inside one period")
    records = []
    for w in w_sequence:
        bm = make_boundary_matrix(w)
        q = bm.q
        if q == 1.0:
            raise ValidationError(f"comb diagnostic needs q < 1, got w = {w!r}")
        s_half = np.pi * domain.ell * window_width  # half-window, angle units
        amp = (1.0 + q) ** 2 / (bm.w * bm.w)  # (1 + q)/(1 - q), 1 - q = w^2/(1 + q)
        mass_in = float(
            2.0 * np.arctan(amp * np.tan(s_half / 2.0)) / (np.pi * domain.ell)
        )
        total = 1.0 / domain.ell
        records.append(
            {
                "w": float(w),
                "window_mass": mass_in,
                "period_mass": total,
                "off_window": total - mass_in,
            }
        )
    return records

