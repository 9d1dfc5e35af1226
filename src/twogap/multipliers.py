"""Lattice translation series: the Fourier multipliers of the model.

Every operator this package applies to packets is, on the transform side,
multiplication by

    M(lambda) = scalar * e(base * lambda) * sum_n  c_n e(n * step * lambda),

with integer lattice indices n and step = alpha - 1.  On the spatial side
(with the convention (e(s lambda) f^)v (x) = f(x + s)) this acts as

    (M f)(x) = scalar * sum_n  c_n f(x + base + n * step),

i.e. a weighted sum of translates — exact on step packets.  The inverse
coefficient functions are geometric series, and every series is generated
by one routine (``_lattice_series``) over ranges of lattice indices, one
per request; all the requests of one call read one table of
q^m e(-m psi), m = 0 ... max |n|, whatever the sign of n or the kind:

* ``causal_terms`` keeps, for each of many (kind, support, window)
  requests, exactly the terms that carry the support into the window.  At
  a finite time only about |t| / step terms reach the output, so every
  evolution is an exact finite sum (tail 0); the rows of one evolution are
  one call, so one table, one weight product and one term array.
* ``train_terms`` keeps the n = 0 term of a one-sided kind and its direct
  reflection: with the ratio z = q e(-psi) they are the whole series as an
  exact geometric train (``packets.PacketTrain``), which is how the t = inf
  pictures (scattering, the translation representations) read it.
* ``make_multiplier`` truncates the whole series at a relative tolerance
  eps and caches it; the ``tail`` field carries the sup-norm bound
  |scalar| * sum of dropped |c_n|.  The density Fourier table of
  ``spectral.fourier_coeffs`` reads it at the default eps = 1e-12, as does
  acceptance criterion 01; other values serve the tail-bound tests.

A series stores its terms as the lattice index ``first`` of its first term
and the read-only array ``coeffs`` of the complex c_n for the consecutive
n = first, first + 1, ..., so a cached series shared by every caller cannot
be changed by one of them.

Kinds
-----
Each kind is one row of ``_kind_terms``: a scalar, a base shift, a weight
and its own range of n, with c_n = weight * q^|n| e(-n psi) there.

a_inv, c_inv            reciprocals of the two eigenfunction coefficients
                        (n >= 0 and n <= 0)
a_conj_inv, c_conj_inv  reciprocals of their conjugates: the partner's
                        row with the scalar conjugated, the base negated
                        and the range reflected
a_inv_c, c_inv_a        the scattering quotients c/a and a/c (weight w^2,
                        n >= 0 and n <= 0), plus a direct reflection at
                        n = -1 and n = 1, one the conjugate of the other
m_squared_inv           1/|a|^2, the spectral density factor (all n)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, _real_lambda, e2pi
from .errors import DegenerateRegime, ValidationError
from .packets import StepPacket, _sum_cells, _translates

__all__ = [
    "MultiplierSeries",
    "make_multiplier",
    "causal_terms",
    "train_terms",
    "apply_multiplier",
    "BLOCK_KIND",
    "MULTIPLIER_KINDS",
]

MULTIPLIER_KINDS = (
    "a_inv",
    "c_inv",
    "a_inv_c",
    "c_inv_a",
    "a_conj_inv",
    "c_conj_inv",
    "m_squared_inv",
)

# (destination component, source component) -> multiplier kind.  These are
# the nine entries of the evolution block matrix: the (i, j) entry is
# m^-2 a_i conj(a_j) with (a_-, a_0, a_+) = (a, 1, c), which telescopes to
# the kinds below; the two "identity" blocks are no series, and their
# readers add the source's own cells.
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


@dataclass(frozen=True, eq=False)
class MultiplierSeries:
    """One translation series; see the module docstring for semantics."""

    scalar: complex
    base_shift: float
    step: float
    first: int  # lattice index n of coeffs[0]
    coeffs: np.ndarray  # complex c_n for n = first, first + 1, ...
    tail: float = 0.0

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def indices(self) -> np.ndarray:
        """The lattice indices n, one per coefficient."""
        return self.first + np.arange(len(self.coeffs))

    def value(self, lam) -> np.ndarray:
        """Pointwise multiplier value on a real lambda grid."""
        lam = _real_lambda(lam)
        scalar_input = lam.ndim == 0
        lam = np.atleast_1d(lam)
        ns, cs = self.indices, self.coeffs
        acc = np.zeros(lam.shape, dtype=complex)
        chunk = max(1, int(2e6 / max(len(lam), 1)))
        for start in range(0, len(ns), chunk):
            sl = slice(start, start + chunk)
            acc += (cs[sl, None] * e2pi(ns[sl, None] * self.step * lam[None, :])).sum(axis=0)
        out = self.scalar * e2pi(self.base_shift * lam) * acc
        return out[0] if scalar_input else out

    def terms(self):
        """(shifts, weights), sorted by lattice index n: the spatial shifts
        base + n * step and the weights scalar * c_n."""
        shifts = self.base_shift + self.indices * self.step
        sc = complex(self.scalar)
        return shifts, _product(sc.real, sc.imag, self.coeffs.real, self.coeffs.imag)


def _product(ar, ai, br, bi) -> np.ndarray:
    """(ar + i ai)(br + i bi) elementwise, rounded as Python's complex product
    (numpy's vectorized one differs in the last bit for many terms)."""
    real = ar * br - ai * bi
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = ar * bi + ai * br
    return out


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


@functools.lru_cache(maxsize=256)
def _underflow_index(q: float) -> int:
    """Largest n with q**n > 0: every term beyond it is an exact zero.  The
    search starts where q**n falls below ulp(0) / 2, where it rounds to 0."""
    if q == 0.0:
        return 0
    n = math.floor((math.log(math.ulp(0.0)) - math.log(2.0)) / math.log(q))
    while q ** (n + 1) > 0.0:
        n += 1
    while n > 0 and q**n == 0.0:
        n -= 1
    return n


def _check_kinds(bm: BoundaryMatrix, kinds) -> None:
    """The check of every route that builds terms: ValidationError for a name
    that is not one of the seven kinds, DegenerateRegime when q rounds to 1
    (w = 0, or w below about 1e-8), where no series decays."""
    for kind in kinds:
        if kind not in MULTIPLIER_KINDS:
            raise ValidationError(f"unknown multiplier kind {kind!r}")
    if bm.q == 1.0:
        raise DegenerateRegime(f"lattice series need q = sqrt(1 - w^2) < 1, got q = 1 at w = {bm.w!r}")


def _coefficient_table(q: float, psi: float, size: int):
    """(q^m, e(-m psi)) for m = 0 ... size - 1: Python's float pow per m
    (numpy's array power differs in the last bit)."""
    return np.array([q**m for m in range(size)], dtype=float), e2pi(-np.arange(size) * psi)


@functools.lru_cache(maxsize=256)
def _kind_terms(bm, domain):
    """kind -> (scalar, base shift, weight, first, last, direct): term n is
    scalar * weight * q^|n| e(-n psi) at the shift base + n * step for
    first <= n <= last (q^cap the last nonzero power), and ``direct`` =
    (d, c_d) the direct reflection of a scattering quotient."""
    w, q, cap = bm.w, bm.q, _underflow_index(bm.q)
    theta, phi, psi, gap = bm.theta, bm.phi, bm.psi, domain.gap
    a_inv, c_inv = w * complex(e2pi(-phi)), w * complex(e2pi(theta - phi))
    a_inv_c, reflection = complex(e2pi(-theta)), -q * complex(e2pi(psi))
    return {
        "a_inv": (a_inv, -1.0, 1.0, 0, cap, None),
        "a_conj_inv": (a_inv.conjugate(), 1.0, 1.0, -cap, 0, None),
        "c_inv": (c_inv, gap, 1.0, -cap, 0, None),
        "c_conj_inv": (c_inv.conjugate(), -gap, 1.0, 0, cap, None),
        "a_inv_c": (a_inv_c, -(gap + 1.0), w * w, 0, cap, (-1, reflection)),
        "c_inv_a": (a_inv_c.conjugate(), gap + 1.0, w * w, -cap, 0, (1, reflection.conjugate())),
        "m_squared_inv": (1.0 + 0j, 0.0, 1.0, -cap, cap, None),
    }


def _lattice_series(bm, domain, requests):
    """The terms of the kinds, one request (kind, reach) each: the lattice
    indices n of the kind's own range that lie in ``reach(base_shift)`` =
    (lo, hi), a float range that may be unbounded, up to the index where
    q^|n| underflows to an exact zero.

    This is the one place the series coefficients are written, those of
    every request from one table over m = 0 ... max |n|
    (``_coefficient_table``): weight * q^m times e(-m psi) at n = m and
    times the conjugate phase at n = -m, each with the bits of the scalar
    weight * q**|n| * complex(e2pi(-n * psi)).  The direct reflection of
    a scattering quotient is written apart.

    Returns (heads, counts, coeffs): the (scalar, base shift, first index n)
    and the number of terms of each request, and the coefficients c_n of
    all requests, concatenated in request order, each ascending in n.
    """
    rows, cap = _kind_terms(bm, domain), _underflow_index(bm.q)
    plans, columns = [], {}  # columns: (weight, phase sign) -> table row
    for kind, reach in requests:
        scalar, base, weight, first, last, direct = rows[kind]
        lo, hi = reach(base)
        lo = math.floor(max(lo, -cap - 1.0))
        hi = math.ceil(min(hi, cap + 1.0))
        # the direct reflection at d is kept when the rounded range meets
        # {0, d}, so every eps series holds it; the train then starts at n = 0
        if direct is not None and not (lo <= max(direct[0], 0) and hi >= min(direct[0], 0)):
            direct = None
        start, stop = max(lo, first), min(hi, last)  # the terms read from the table
        if start <= stop and start < 0:
            columns.setdefault((weight, -1.0), len(columns))
        if start <= stop and stop >= 0:
            columns.setdefault((weight, 1.0), len(columns))
        plans.append((scalar, base, weight, direct, start, stop))
    size = 1 + max((max(-start, stop) for *_, start, stop in plans if start <= stop), default=-1)
    mag, phase = _coefficient_table(bm.q, bm.psi, size)
    # one product for every column: weight * q^m times e(-m psi) or its conjugate
    keys = np.array(list(columns), dtype=float).reshape(-1, 2)
    table = _product(keys[:, :1] * mag, 0.0, phase.real, keys[:, 1:] * phase.imag)

    heads, counts, pieces = [], [], []
    for scalar, base, weight, direct, start, stop in plans:
        run = []  # the coefficients of the kept range, ascending in n
        if start <= stop and start < 0:
            run.append(table[columns[weight, -1.0], -start : max(-stop, 1) - 1 : -1])
        if start <= stop and stop >= 0:
            run.append(table[columns[weight, 1.0], max(start, 0) : stop + 1])
        count = max(stop - start + 1, 0)
        if direct is not None:  # at d = -1 before the range, at d = 1 after it
            run.insert(0 if direct[0] < 0 else len(run), np.array([direct[1]]))
            start, count = min(start, direct[0]), count + 1
        heads.append((scalar, base, start))
        counts.append(count)
        pieces += run
    coeffs = np.concatenate(pieces) if pieces else np.empty(0, dtype=complex)
    return heads, counts, coeffs


def _series(bm, domain, kind, reach, tail) -> MultiplierSeries:
    """The one-request ``_lattice_series`` of ``kind`` as a MultiplierSeries."""
    ((scalar, base, first),), _, coeffs = _lattice_series(bm, domain, [(kind, reach)])
    return MultiplierSeries(scalar, base, domain.ell, first, coeffs, tail)


@functools.lru_cache(maxsize=256)
def make_multiplier(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    kind: str,
    eps: float = 1e-12,
) -> MultiplierSeries:
    """Build one of the named series for (bm, domain) at tolerance eps.

    This is the whole series, truncated.  A finite time or horizon reads
    ``causal_terms``, and t = inf the exact train of ``train_terms``;
    the one library caller is the density Fourier table of
    ``spectral.fourier_coeffs``, and acceptance criterion 01 reads it too.
    Series are cached per (bm, domain, kind, eps) and shared by every caller;
    their arrays are read-only.  Every kind, mirrored or not, is its own row
    of ``_kind_terms`` read on |n| <= N, and a mirrored kind's tail bound is
    its partner's.
    """
    _check_kinds(bm, (kind,))
    w, q = bm.w, bm.q
    if kind == "m_squared_inv":
        n_terms = _geom_terms(q, eps / 2.0)
        tail = 2.0 * q ** (n_terms + 1) / (1.0 - q) if q > 0.0 else 0.0
    else:
        n_terms = _geom_terms(q, eps)
        geo_tail = q ** (n_terms + 1) / (1.0 - q) if q > 0.0 else 0.0
        tail = (w * w if kind in ("a_inv_c", "c_inv_a") else w) * geo_tail
    return _series(bm, domain, kind, lambda base: (-n_terms, n_terms), tail)


def causal_terms(bm: BoundaryMatrix, domain: ExteriorDomain, requests):
    """The terms of several causal series at once, from one coefficient
    table; exact, so their tail is 0.  Not cached.

    Request (kind, support, window) asks for every term of ``kind`` that
    carries a packet supported on ``support`` into the open interval
    ``window``.  Term n sends (a, b) to (a - s, b - s) with
    s = base + n * step, and it is kept when a - s < window[1] and
    b - s > window[0] (the index range is rounded outward, so a term at the
    edge may be kept with no overlap).  A window bounded on the side where
    the kind's indices are bounded makes the series finite; so does the
    underflow of q^|n|.

    Returns (counts, shifts, weights): the number of terms of each request,
    and the spatial shifts base + n * step and the weights scalar * c_n of
    all of them, concatenated in request order, each request's ascending in
    n, bit for bit its ``MultiplierSeries.terms``.
    """
    reaches = [(kind, _reach(a, b, lo, hi, domain.ell)) for kind, (a, b), (lo, hi) in requests]
    _check_kinds(bm, [kind for kind, _ in reaches])
    heads, counts, coeffs = _lattice_series(bm, domain, reaches)
    scalar, base, skip, at = [], [], [], 0
    for (c, b, first), count in zip(heads, counts):
        scalar.append(c)
        base.append(b)
        skip.append(first - at)  # a term's index n less its position
        at += count
    ns = np.arange(at) + np.array(skip, dtype=int).repeat(counts)
    shifts = np.array(base, dtype=float).repeat(counts) + ns * domain.ell
    scalar = np.array(scalar, dtype=complex).repeat(counts)
    return counts, shifts, _product(scalar.real, scalar.imag, coeffs.real, coeffs.imag)


def _reach(a, b, win_lo, win_hi, step):
    """The float index range of the terms that carry (a, b) into the window."""
    return lambda base: ((a - win_hi - base) / step, (b - win_lo - base) / step)


def train_terms(bm: BoundaryMatrix, domain: ExteriorDomain, kind: str) -> MultiplierSeries:
    """The terms of a one-sided inverse kind that do not continue its train.

    That is the n = 0 term and, for the scattering quotients, the direct
    reflection beside it (n = -1 for a_inv_c, n = 1 for c_inv_a).  Every
    other term n is z^|n| times the n = 0 term shifted by n steps, with
    z = q e(-psi) for a_inv, c_conj_inv, a_inv_c and conj(z) for their
    partners, so these terms and z are the kind's whole series, exactly.
    Read from ``_lattice_series`` like every other series; tail 0.
    """
    _check_kinds(bm, (kind,))
    return _series(bm, domain, kind, lambda base: (0.0, 0.0), 0.0)


def apply_multiplier(m: MultiplierSeries, f: StepPacket) -> StepPacket:
    """Spatial action: scalar * sum_n c_n f(. + base + n step), one sweep."""
    if f.is_empty or not len(m.coeffs):
        return StepPacket.zero()
    return StepPacket(*_sum_cells([_translates(f, *m.terms())]), _trusted=True)

