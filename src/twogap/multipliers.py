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
per request; the indices of all the requests of one call form one array,
and each term n reads one table of q^m e(-m psi), m = 0 ... max |n|, at
m = |n|, whatever the sign of n or the kind.
Two routes read it exactly, with no truncation:

* ``causal_terms`` keeps, for each of many (kind, support, window)
  requests, exactly the terms that carry the support into the window.  At
  a finite time only about |t| / step terms reach the output, so every
  evolution is an exact finite sum (tail 0); the rows of one evolution are
  one call, so one table, one weight product and one term array.
* ``train_terms`` keeps the n = 0 term of a one-sided kind and its direct
  reflection: with the ratio z = q e(-psi) they are the whole series as an
  exact geometric train (``packets.PacketTrain``), which is how the t = inf
  pictures (scattering, the translation representations) read it.

A window cut at a tolerance is only ever a listing, never an operator:
``make_multiplier`` lists the density multiplier ``m_squared_inv`` on
|n| <= N for the Fourier table of ``spectral.fourier_coeffs`` (and the CLI
lists the first N + 1 terms of a scattered train).  ``_geom_terms`` sizes
both windows and refuses an N, the number of terms on a side, above 2**20.

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
from typing import NamedTuple

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, e2pi
from .errors import DegenerateRegime, ValidationError

__all__ = [
    "make_multiplier",
    "causal_terms",
    "train_terms",
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


def _product(ar, ai, br, bi) -> np.ndarray:
    """(ar + i ai)(br + i bi) elementwise, rounded as Python's complex product
    (numpy's vectorized one differs in the last bit for many terms)."""
    real = ar * br - ai * bi
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = ar * bi + ai * br
    return out


# the largest N, the number of terms on each side, of a window cut at a
# tolerance: the two-sided density window |n| <= N then holds at most
# 2**21 + 1 terms, 32 MB of complex coefficients.  The density table at
# w = 1e-2 needs N = 764,514, at w = 1e-3 about 85 million
MAX_WINDOW_TERMS = 2**20


def _geom_terms(q: float, eps: float) -> int:
    """Smallest N with q^(N+1)/(1-q) <= eps (tail of a unit geometric series).

    The one sizer of a window cut at a tolerance; DegenerateRegime when N
    (the terms on one side) exceeds ``MAX_WINDOW_TERMS``, before any such
    window is built."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValidationError("truncation tolerance must be positive and finite")
    if q == 0.0:
        return 0
    n = max(0, int(np.ceil(np.log(eps * (1.0 - q)) / np.log(q))) - 1)
    while q ** (n + 1) / (1.0 - q) > eps:
        n += 1
    if n > MAX_WINDOW_TERMS:
        raise DegenerateRegime(
            f"a window with tail at most eps = {eps!r} at q = {q!r} needs {n} terms on each side, "
            f"more than {MAX_WINDOW_TERMS}"
        )
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

    This is the one place the series coefficients are written: the indices
    of every request go into one array, and each term reads the one table
    of q^m and e(-m psi) over m = 0 ... max |n| (``_coefficient_table``) at
    m = |n|, as weight * q^m times e(-m psi), or its conjugate for n < 0, in
    one product, with the bits of the scalar weight * q**|n| *
    complex(e2pi(-n * psi)).  The direct reflection of a scattering quotient
    is then written at its index.

    It is also the one check of every request: DegenerateRegime when q
    rounds to 1 (w = 0, or w below about 1e-8), where no series decays,
    before any reach is called; ValidationError for a name that is not one
    of the seven kinds.

    Returns (heads, counts, ns, coeffs): the (scalar, base shift) and the
    number of terms of each request, and the lattice indices n and the
    coefficients c_n of all requests, concatenated in request order, each
    request's consecutive and ascending in n.
    """
    if bm.q == 1.0:
        raise DegenerateRegime(f"lattice series need q = sqrt(1 - w^2) < 1, got q = 1 at w = {bm.w!r}")
    rows, cap = _kind_terms(bm, domain), _underflow_index(bm.q)
    heads, counts, weights, runs, directs, at = [], [], [], [np.empty(0, dtype=int)], [], 0
    for kind, reach in requests:
        if kind not in MULTIPLIER_KINDS:
            raise ValidationError(f"unknown multiplier kind {kind!r}")
        scalar, base, weight, first, last, direct = rows[kind]
        lo, hi = reach(base)
        lo = math.floor(max(lo, -cap - 1.0))
        hi = math.ceil(min(hi, cap + 1.0))
        start, stop = max(lo, first), min(hi, last)
        # the direct reflection at d is kept when the rounded range meets
        # {0, d}, so a window |n| <= K holds it; it lies next to the range,
        # at d = -1 before it and at d = 1 after it
        if direct is not None and lo <= max(direct[0], 0) and hi >= min(direct[0], 0):
            start, stop = min(start, direct[0]), max(stop, direct[0])
            directs.append((at + direct[0] - start, direct[1]))
        count = max(stop - start + 1, 0)
        heads.append((scalar, base))
        counts.append(count)
        weights.append(weight)
        runs.append(np.arange(start, start + count))
        at += count
    ns = np.concatenate(runs)
    m = np.abs(ns)
    mag, phase = _coefficient_table(bm.q, bm.psi, int(m.max()) + 1 if at else 0)
    imag = phase.imag[m]
    weights = np.array(weights, dtype=float).repeat(counts)
    coeffs = _product(weights * mag[m], 0.0, phase.real[m], np.where(ns < 0, -imag, imag))
    for i, c in directs:
        coeffs[i] = c
    return heads, counts, ns, coeffs


def _term_arrays(bm, domain, requests):
    """``_lattice_series`` as arrays: (counts, ns, shifts, weights), the
    number of terms of each request, and its lattice indices n with the
    spatial shifts base + n * step and the weights scalar * c_n of all of
    them, concatenated in request order, each request's ascending in n."""
    heads, counts, ns, coeffs = _lattice_series(bm, domain, requests)
    scalar = np.array([c for c, _ in heads], dtype=complex).repeat(counts)
    shifts = np.array([b for _, b in heads], dtype=float).repeat(counts) + ns * domain.ell
    return counts, ns, shifts, _product(scalar.real, scalar.imag, coeffs.real, coeffs.imag)


class DensityWindow(NamedTuple):
    """The coefficients c_n = q^|n| e(-n psi) of ``m_squared_inv`` for the
    consecutive n = -N ... N, read-only, and ``tail`` = 2 q^(N+1)/(1-q),
    the sum of the |c_n| left out."""

    indices: np.ndarray
    coeffs: np.ndarray
    tail: float


@functools.lru_cache(maxsize=256)
def make_multiplier(bm: BoundaryMatrix, domain: ExteriorDomain, eps: float = 1e-12) -> DensityWindow:
    """The density multiplier m^-2 = 1/|a|^2 listed on the smallest window
    |n| <= N whose tail 2 q^(N+1)/(1-q) is at most eps.

    A listing, never applied to a packet: its one reader is the density
    Fourier table of ``spectral.fourier_coeffs``.  Windows are cached per
    (bm, domain, eps) and shared by every caller, so their arrays are
    read-only.  N is sized inside ``_lattice_series``, after its check of
    q < 1.
    """

    def window(base):
        n = _geom_terms(bm.q, eps / 2.0)
        return -n, n

    _, _, indices, coeffs = _lattice_series(bm, domain, [("m_squared_inv", window)])
    indices.flags.writeable = coeffs.flags.writeable = False
    tail = 2.0 * bm.q ** (1 - int(indices[0])) / (1.0 - bm.q) if bm.q > 0.0 else 0.0
    return DensityWindow(indices, coeffs, tail)


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
    n.
    """
    reaches = [(kind, _reach(a, b, lo, hi, domain.ell)) for kind, (a, b), (lo, hi) in requests]
    counts, _, shifts, weights = _term_arrays(bm, domain, reaches)
    return counts, shifts, weights


def _reach(a, b, win_lo, win_hi, step):
    """The float index range of the terms that carry (a, b) into the window."""
    return lambda base: ((a - win_hi - base) / step, (b - win_lo - base) / step)


def train_terms(bm: BoundaryMatrix, domain: ExteriorDomain, kind: str):
    """The terms of a one-sided inverse kind that do not continue its train.

    That is the n = 0 term and, for the scattering quotients, the direct
    reflection beside it (n = -1 for a_inv_c, n = 1 for c_inv_a).  Every
    other term n is z^|n| times the n = 0 term shifted by n steps, with
    z = q e(-psi) for a_inv, c_conj_inv, a_inv_c and conj(z) for their
    partners, so these terms and z are the kind's whole series, exactly.

    Returns (ns, shifts, weights), ascending in n, read from
    ``_lattice_series`` like every other series.
    """
    _, ns, shifts, weights = _term_arrays(bm, domain, [(kind, lambda base: (0.0, 0.0))])
    return ns, shifts, weights
