"""Lattice translation series: the Fourier multipliers of the model.

Every operator this package applies to packets is, on the transform side,
multiplication by

    M(lambda) = scalar * e(base * lambda) * sum_n  c_n e(n * step * lambda),

with integer lattice indices n and step = alpha - 1.  On the spatial side
(with the convention (e(s lambda) f^)v (x) = f(x + s)) this acts as

    (M f)(x) = scalar * sum_n  c_n f(x + base + n * step),

i.e. a weighted sum of translates — exact on step packets.  The inverse
coefficient functions are geometric series, and every series is generated
by one routine (``_lattice_series``) over a range of lattice indices:

* ``causal_multiplier`` keeps exactly the terms that carry a given support
  into a given window.  At a finite time only about |t| / step terms reach
  the output, so every evolution is an exact finite sum (tail 0).
* ``make_multiplier`` truncates the whole series at a relative tolerance
  eps and caches it; the ``tail`` field carries the sup-norm bound
  |scalar| * sum of dropped |c_n|.  Only the t = inf pictures (scattering,
  the translation representations), which see every term, use it, at the
  default eps = 1e-12; other values serve the tail-bound tests.

Kinds
-----
a_inv, c_inv          reciprocals of the two eigenfunction coefficients
a_conj_inv, c_conj_inv  reciprocals of their conjugates
a_inv_c, c_inv_a      the scattering quotients c/a and a/c
m_squared_inv         1/|a|^2, the spectral density factor (two-sided series)
identity              multiplication by 1
a, c                  the coefficient functions themselves (finite, 2 terms)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, e2pi
from .errors import DegenerateRegime, ValidationError
from .packets import StepPacket, _assemble

__all__ = [
    "MultiplierSeries",
    "make_multiplier",
    "causal_multiplier",
    "apply_multiplier",
    "conjugate_multiplier",
    "compose_multipliers",
    "BLOCK_KIND",
    "block_multiplier",
    "block_multiplier_composed",
    "MULTIPLIER_KINDS",
]

MULTIPLIER_KINDS = (
    "identity",
    "a_inv",
    "c_inv",
    "a_inv_c",
    "c_inv_a",
    "a_conj_inv",
    "c_conj_inv",
    "m_squared_inv",
    "a",
    "c",
)

# (destination component, source component) -> multiplier kind.  These are
# the nine entries of the evolution block matrix: the (i, j) entry is
# m^-2 a_i conj(a_j) with (a_-, a_0, a_+) = (a, 1, c), which telescopes to
# the kinds below.
BLOCK_KIND = {
    ("iminus", "iminus"): "identity",
    ("iminus", "izero"): "a_conj_inv",
    ("iminus", "iplus"): "c_inv_a",
    ("izero", "iminus"): "a_inv",
    ("izero", "izero"): "m_squared_inv",
    ("izero", "iplus"): "c_inv",
    ("iplus", "iminus"): "a_inv_c",
    ("iplus", "izero"): "c_conj_inv",
    ("iplus", "iplus"): "identity",
}

_CONJ_KIND = {
    "identity": "identity",
    "a_inv": "a_conj_inv",
    "a_conj_inv": "a_inv",
    "c_inv": "c_conj_inv",
    "c_conj_inv": "c_inv",
    "a_inv_c": "c_inv_a",
    "c_inv_a": "a_inv_c",
    "m_squared_inv": "m_squared_inv",
}
# kinds whose series is the conjugate of their partner's in _CONJ_KIND
_MIRRORED = ("a_conj_inv", "c_conj_inv", "c_inv_a")


@dataclass(frozen=True)
class MultiplierSeries:
    """One translation series; see the module docstring for semantics."""

    scalar: complex
    base_shift: float
    step: float
    coeffs: dict = field(default_factory=dict)  # int lattice index -> complex
    kind: str = "custom"
    tail: float = 0.0

    def value(self, lam) -> np.ndarray:
        """Pointwise multiplier value on a real lambda grid."""
        lam = np.asarray(lam, dtype=float)
        scalar_input = lam.ndim == 0
        lam = np.atleast_1d(lam)
        ns = np.array(sorted(self.coeffs), dtype=float)
        cs = np.array([self.coeffs[int(n)] for n in ns], dtype=complex)
        acc = np.zeros(lam.shape, dtype=complex)
        chunk = max(1, int(2e6 / max(len(lam), 1)))
        for start in range(0, len(ns), chunk):
            sl = slice(start, start + chunk)
            acc += (cs[sl, None] * e2pi(ns[sl, None] * self.step * lam[None, :])).sum(axis=0)
        out = self.scalar * e2pi(self.base_shift * lam) * acc
        return out[0] if scalar_input else out

    def sum_abs(self) -> float:
        """|scalar| times the coefficient l1 mass (sup-norm bound)."""
        return abs(self.scalar) * float(sum(abs(c) for c in self.coeffs.values()))

    def terms(self):
        """(shifts, weights), sorted by lattice index n: the spatial shifts
        base + n * step and the weights scalar * c_n."""
        ns = sorted(self.coeffs)
        shifts = self.base_shift + np.array(ns, dtype=float) * self.step
        weights = np.array([self.scalar * self.coeffs[n] for n in ns], dtype=complex)
        return shifts, weights


def _geom_terms(q: float, eps: float) -> int:
    """Smallest N with q^(N+1)/(1-q) <= eps (tail of a unit geometric series)."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValidationError("truncation tolerance must be positive and finite")
    if q == 0.0:
        return 0
    n = max(0, int(np.ceil(np.log(eps * (1.0 - q)) / np.log(q))) - 1)
    while q ** (n + 1) / (1.0 - q) > eps:
        n += 1
    return n


def _underflow_index(q: float) -> int:
    """Largest n with q**n > 0: every term beyond it is an exact zero."""
    if q == 0.0:
        return 0
    n = int(math.log(math.ulp(0.0)) / math.log(q))
    while q ** (n + 1) > 0.0:
        n += 1
    while n > 0 and q**n == 0.0:
        n -= 1
    return n


def _check_kind(bm: BoundaryMatrix, kind: str) -> None:
    if kind not in MULTIPLIER_KINDS:
        raise ValidationError(f"unknown multiplier kind {kind!r}")
    if bm.w == 0.0 and kind != "identity":
        raise DegenerateRegime(
            f"multiplier {kind!r} needs w > 0 (decoupled regime has no "
            "transmission; use the dedicated decoupled evolution)"
        )


def _lattice_series(bm, domain, kind, reach, tail) -> MultiplierSeries:
    """The terms of an inverse kind whose lattice index n lies in
    ``reach(base_shift)`` = (lo, hi), a float range that may be unbounded.

    This is the one place the series coefficients are written: the kind's
    own indices (n >= 0, n <= 0 or all n) are kept, up to the index where
    q^|n| underflows to an exact zero.  The mirrored kinds are conjugates of
    their partners, generated on the mirrored range.
    """
    if kind in _MIRRORED:

        def mirrored(base):
            lo, hi = reach(-base)
            return -hi, -lo

        partner = _lattice_series(bm, domain, _CONJ_KIND[kind], mirrored, tail)
        return conjugate_multiplier(partner)
    w, q = bm.w, bm.q
    theta, phi, psi = bm.theta, bm.phi, bm.psi
    gap = domain.gap
    cap = _underflow_index(q)
    # scalar, base shift and the train: weight * q^|n| e(-n psi), first <= n <= last
    if kind == "a_inv":
        scalar, base, weight, first, last = w * complex(e2pi(-phi)), -1.0, 1.0, 0, cap
    elif kind == "c_inv":
        scalar, base, weight, first, last = w * complex(e2pi(theta - phi)), gap, 1.0, -cap, 0
    elif kind == "m_squared_inv":
        scalar, base, weight, first, last = 1.0 + 0j, 0.0, 1.0, -cap, cap
    elif kind == "a_inv_c":  # the direct reflection at n = -1, then w^2 times the train
        scalar, base, weight, first, last = complex(e2pi(-theta)), -(gap + 1.0), w * w, 0, cap
    else:
        raise ValidationError(f"{kind!r} is not a lattice series")
    lo, hi = reach(base)
    lo = math.floor(max(lo, -cap - 1.0))
    hi = math.ceil(min(hi, cap + 1.0))
    coeffs = {}
    if kind == "a_inv_c" and lo <= 0 and hi >= -1:
        # the direct reflection; kept when the rounded range reaches n <= 0,
        # so every eps series holds it
        coeffs[-1] = -q * complex(e2pi(psi))
    for n in range(max(lo, first), min(hi, last) + 1):
        coeffs[n] = weight * q ** abs(n) * complex(e2pi(-n * psi))
    return MultiplierSeries(scalar, base, domain.ell, coeffs, kind, tail)


@functools.lru_cache(maxsize=256)
def make_multiplier(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    kind: str,
    eps: float = 1e-12,
) -> MultiplierSeries:
    """Build one of the named series for (bm, domain) at tolerance eps.

    This is the whole series, truncated: what the t = inf pictures read.
    A finite time or horizon reads ``causal_multiplier``.
    Series are cached per (bm, domain, kind, eps) and shared by every caller,
    so the result must be treated as read-only.
    """
    _check_kind(bm, kind)
    w, q = bm.w, bm.q
    theta, phi, psi = bm.theta, bm.phi, bm.psi
    ell, gap = domain.ell, domain.gap
    if kind == "identity":
        return MultiplierSeries(1.0 + 0j, 0.0, ell, {0: 1.0 + 0j}, "identity", 0.0)
    if kind == "a":
        coeffs = {0: 1.0 + 0j, 1: -q * complex(e2pi(-psi))}
        return MultiplierSeries(complex(e2pi(phi)) / w, 1.0, ell, coeffs, "a", 0.0)
    if kind == "c":
        coeffs = {0: 1.0 + 0j, -1: -q * complex(e2pi(psi))}
        return MultiplierSeries(complex(e2pi(phi - theta)) / w, -gap, ell, coeffs, "c", 0.0)
    if kind == "m_squared_inv":
        n_terms = _geom_terms(q, eps / 2.0)
        tail = 2.0 * q ** (n_terms + 1) / (1.0 - q) if q > 0.0 else 0.0
    else:
        n_terms = _geom_terms(q, eps)
        geo_tail = q ** (n_terms + 1) / (1.0 - q) if q > 0.0 else 0.0
        tail = (w * w if kind in ("a_inv_c", "c_inv_a") else w) * geo_tail
    return _lattice_series(bm, domain, kind, lambda base: (-n_terms, n_terms), tail)


def causal_multiplier(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    kind: str,
    support,
    window,
) -> MultiplierSeries:
    """Every term of ``kind`` that carries a packet supported on ``support``
    into the open interval ``window``; exact, so its tail is 0.

    Term n sends (a, b) to (a - s, b - s) with s = base + n * step, and it is
    kept when a - s < window[1] and b - s > window[0] (the index range is
    rounded outward, so a term at the edge may be kept with no overlap).
    A window bounded on the side where the kind's indices are bounded makes
    the series finite; so does the underflow of q^|n|.  Not cached.
    """
    _check_kind(bm, kind)
    (a, b), (win_lo, win_hi) = support, window
    step = domain.ell

    def reach(base):
        return (a - win_hi - base) / step, (b - win_lo - base) / step

    return _lattice_series(bm, domain, kind, reach, 0.0)


def conjugate_multiplier(m: MultiplierSeries) -> MultiplierSeries:
    """Pointwise complex conjugate on the real axis.

    conj(M)(lambda) has conjugated scalar, negated base shift and the
    coefficient at -n equal to conj(c_n).
    """
    coeffs = {-n: np.conj(c) for n, c in m.coeffs.items()}
    kind = _CONJ_KIND.get(m.kind, f"conj({m.kind})")
    return MultiplierSeries(
        np.conj(m.scalar), -m.base_shift, m.step, coeffs, kind, m.tail
    )


def compose_multipliers(m1: MultiplierSeries, m2: MultiplierSeries) -> MultiplierSeries:
    """Product multiplier (convolution of coefficient tables).

    Both factors must live on the same lattice step.  The tail bound adds
    the cross terms |M1_tail|*|M2| + |M2_tail|*|M1| + |M1_tail||M2_tail|.
    """
    if abs(m1.step - m2.step) > 1e-12 * max(1.0, abs(m1.step)):
        raise ValidationError("cannot compose series on different lattices")
    coeffs = {}
    for n1, c1 in m1.coeffs.items():
        for n2, c2 in m2.coeffs.items():
            k = n1 + n2
            coeffs[k] = coeffs.get(k, 0.0 + 0j) + c1 * c2
    tail = m1.tail * m2.sum_abs() + m2.tail * m1.sum_abs() + m1.tail * m2.tail
    return MultiplierSeries(
        m1.scalar * m2.scalar,
        m1.base_shift + m2.base_shift,
        m1.step,
        coeffs,
        f"{m1.kind}*{m2.kind}",
        tail,
    )


def apply_multiplier(m: MultiplierSeries, f: StepPacket) -> StepPacket:
    """Spatial action: scalar * sum_n c_n f(. + base + n step), one sweep."""
    if f.is_empty or not m.coeffs:
        return StepPacket.zero()
    shifts, weights = m.terms()
    segs = {}
    for freq, vals in f.waves.items():
        # g(x) = f(x+s): a cell value v e(freq y) becomes v e(freq s) e(freq x);
        # rows are shifts, so the segments stay in series order
        weights_f = weights * e2pi(freq * shifts) if freq else weights
        segs[freq] = (
            (f.lo[None, :] - shifts[:, None]).ravel(),
            (f.hi[None, :] - shifts[:, None]).ravel(),
            (vals[None, :] * weights_f[:, None]).ravel(),
        )
    return StepPacket(*_assemble(segs), _trusted=True)


def block_multiplier(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    dest: str,
    src: str,
    eps: float = 1e-12,
) -> MultiplierSeries:
    """The (dest, src) entry of the evolution block matrix."""
    try:
        kind = BLOCK_KIND[(dest, src)]
    except KeyError:
        raise ValidationError(f"unknown block ({dest!r}, {src!r})") from None
    return make_multiplier(bm, domain, kind, eps)


def block_multiplier_composed(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    dest: str,
    src: str,
    eps: float = 1e-12,
) -> MultiplierSeries:
    """Same entry built the long way: m^-2 * a_dest * conj(a_src).

    Exercises series composition/conjugation; agrees with block_multiplier
    up to truncation tails (tested, not assumed).
    """
    factor = {
        "iminus": "a",
        "izero": "identity",
        "iplus": "c",
    }
    m = make_multiplier(bm, domain, "m_squared_inv", eps)
    m = compose_multipliers(m, make_multiplier(bm, domain, factor[dest], eps))
    m = compose_multipliers(
        m, conjugate_multiplier(make_multiplier(bm, domain, factor[src], eps))
    )
    return m
