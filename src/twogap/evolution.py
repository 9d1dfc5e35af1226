"""Unitary evolution of step packets and its scattering bookkeeping.

The evolution at time t acts on a packet supported in the open domain by a
3x3 block of translation multipliers followed by the rigid shift by t and
restriction back to the components.  The (dest, src) block kinds live in
``multipliers.BLOCK_KIND``, and ``block_row`` is the one place that applies
them: evolution, single block entries, scattering and both translation
representations are all rows of that matrix.
The packet picture of, say, a left-launched packet is: the identity copy
keeps moving on I_minus, the transmitted geometric train enters the middle
interval through a_inv, and the outgoing train leaves through a_inv_c (one
direct reflection plus the resonance sum).

Propagation is finite: by time t only about |t| / ell reflections have
happened.  So the finite-time routines (``evolve``, ``block_matrix_entry``,
``correlation``, ``cesaro_decay``) give ``block_row`` a pre-shift window
and apply only the lattice terms that reach it; they are exact finite sums
with truncation 0, at a cost that follows the reflections, not w.
``scatter`` and ``translation_representation`` describe t = inf and read
the whole series, cut once at the fixed 1e-12 default of
``make_multiplier``.

The same formulas hold for negative t (the derivation is time-sign-free);
the adjoint relation <U(-t) f, g> = <f, U(t) g> is verified in the tests
rather than used as a definition.

The middle interval alone is an explicit wrap: what leaves at alpha comes
back at 1 scaled by z = q e(-psi).  For w > 0, t >= 0 that is the
compressed semigroup; at w = 0, |z| = 1 and the two half-lines glue into a
single line (exit at 0, re-enter at beta) with splice phase -e(psi - theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, e2pi
from .errors import (
    DegenerateRegime,
    EmptySupport,
    NotDecoupled,
    SupportViolation,
    ValidationError,
)
from .multipliers import (
    BLOCK_KIND,
    apply_multiplier,
    causal_multiplier,
    make_multiplier,
)
from .packets import StepPacket, sum_packets

__all__ = [
    "EvolutionResult",
    "evolve",
    "evolve_decoupled",
    "scatter",
    "translation_representation",
    "correlation",
    "cesaro_decay",
    "block_matrix_entry",
    "block_row",
    "decompose",
]

COMPONENTS = ("iminus", "izero", "iplus")


def _require_steps(what, *packets):
    for p in packets:
        if any(n != 0 for n in p.frequencies()):
            raise ValidationError(f"{what} supports frequency-0 packets only")


def decompose(f: StepPacket, domain: ExteriorDomain):
    """Split f into its three component restrictions; reject obstacle mass.

    Mass on the removed intervals [0,1] and [alpha,beta] above 1e-12
    (squared, relative to the packet norm) raises SupportViolation.
    """
    parts = tuple(f.restrict(*domain.component(tag)) for tag in COMPONENTS)
    leak = f.norm2() - sum(p.norm2() for p in parts)
    if leak > 1e-12 * max(1.0, f.norm2()):
        raise SupportViolation(
            f"packet carries mass {leak:.3e} on the removed intervals"
        )
    return parts


@dataclass(frozen=True)
class EvolutionResult:
    """Evolved packet plus its series-truncation budget (0 when exact)."""

    packet: StepPacket
    t: float
    truncation: float


def _finite_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t!r}")
    return t


def block_row(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    parts,
    dest: str,
    *,
    window=None,
) -> StepPacket:
    """Row ``dest`` of the block matrix applied to component parts.

    ``parts`` holds one packet per source component, in COMPONENTS order;
    empty parts are skipped.  Returns the pre-shift packet
    sum_src M[dest, src] parts[src].  With a pre-shift ``window`` (lo, hi)
    each entry is the exact finite sum of its lattice terms that reach the
    window, so the packet is exact on the window (and meaningless outside
    it); without one each entry is its whole series at the default cut of
    ``make_multiplier`` (the t = inf pictures, which see every term).
    """
    pieces = []
    for src, fsrc in zip(COMPONENTS, parts):
        if fsrc.is_empty:
            continue
        kind = BLOCK_KIND[(dest, src)]
        if kind == "identity":
            pieces.append(fsrc)
            continue
        if window is None:
            m = make_multiplier(bm, domain, kind)
        else:
            m = causal_multiplier(bm, domain, kind, fsrc.support(), window)
        pieces.append(apply_multiplier(m, fsrc))
    return sum_packets(pieces)


def _window(domain: ExteriorDomain, dest: str, t: float):
    """Where the dest component is before the shift by t."""
    lo, hi = domain.component(dest)
    return lo - t, hi - t


def evolve(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    t: float,
) -> EvolutionResult:
    """Unitary evolution U(t) f for w > 0 (any finite real t).

    Each row applies only the lattice terms that reach its component at
    time t, about |t| / ell reflections, so the sum is exact (truncation 0)
    and its cost does not depend on w.
    """
    t = _finite_time(t)
    if bm.w == 0.0:
        raise DegenerateRegime("w = 0 evolution is decoupled; use evolve_decoupled")
    parts = decompose(f, domain)
    out = []
    for dest in COMPONENTS:
        g = block_row(bm, domain, parts, dest, window=_window(domain, dest, t))
        if not g.is_empty:
            out.append(g.translate(t).restrict(*domain.component(dest)))
    return EvolutionResult(packet=sum_packets(out), t=t, truncation=0.0)


def block_matrix_entry(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    dest: str,
    src: str,
    f: StepPacket,
    t: float,
) -> StepPacket:
    """The (dest, src) block of U(t) applied to f: restriction of the
    multiplier action of the src part, shifted by t, clipped to dest."""
    t = _finite_time(t)
    if bm.w == 0.0:
        raise DegenerateRegime("block entries need w > 0")
    if dest not in COMPONENTS or src not in COMPONENTS:
        raise ValidationError(f"unknown components ({dest!r}, {src!r})")
    parts = [
        f.restrict(*domain.component(tag)) if tag == src else StepPacket.zero()
        for tag in COMPONENTS
    ]
    g = block_row(bm, domain, parts, dest, window=_window(domain, dest, t))
    return g.translate(t).restrict(*domain.component(dest))


# ----------------------------------------------------------------------
# the middle-interval wrap and the decoupled (w = 0) dynamics
# ----------------------------------------------------------------------


def _wrap_middle(bm, domain, f0, t):
    """Damped wrap of the middle interval, z = ``bm.b_entry`` per pass: the
    compressed semigroup for w > 0, t >= 0; unitary at w = 0 (any t)."""
    if f0.is_empty:
        return f0
    ell = domain.ell
    r = t % ell
    m = round((t - r) / ell)
    g = f0.translate(r).scale(bm.q**m * complex(e2pi(-bm.psi * m)))
    inside = g.restrict(1.0, domain.alpha)
    spill = g.restrict(domain.alpha, domain.alpha + ell)
    if spill.is_empty:
        return inside
    return inside + spill.translate(-ell).scale(bm.b_entry)


def _splice_halflines(bm, domain, fm, fp, t):
    """Glued-line shift: exit at 0, re-enter at beta, phase -e(psi-theta)."""
    omega = -complex(e2pi(bm.psi - bm.theta))
    h = fm + fp.translate(-domain.beta)  # glued coordinate: I_plus -> (0, inf)
    if h.is_empty:
        return h
    if t >= 0:
        stay_neg = h.restrict(hi=-t).translate(t)
        crossed = h.restrict(-t, 0.0).translate(t).scale(omega)
        stay_pos = h.restrict(lo=0.0).translate(t)
    else:
        stay_neg = h.restrict(hi=0.0).translate(t)
        crossed = h.restrict(0.0, -t).translate(t).scale(np.conj(omega))
        stay_pos = h.restrict(lo=-t).translate(t)
    g = sum_packets([stay_neg, crossed, stay_pos])
    return g.restrict(hi=0.0) + g.restrict(lo=0.0).translate(domain.beta)


def evolve_decoupled(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    t: float,
) -> EvolutionResult:
    """Exact w = 0 evolution (wrap + splice); no series, no truncation."""
    t = _finite_time(t)
    if bm.w != 0.0:
        raise NotDecoupled(f"evolve_decoupled needs w = 0, got w = {bm.w}")
    fm, f0, fp = decompose(f, domain)
    out = _wrap_middle(bm, domain, f0, t) + _splice_halflines(bm, domain, fm, fp, t)
    return EvolutionResult(packet=out, t=t, truncation=0.0)


# ----------------------------------------------------------------------
# scattering pictures
# ----------------------------------------------------------------------


def scatter(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f_in: StepPacket,
) -> StepPacket:
    """Map an incoming packet (supported on I_minus) to its outgoing image.

    This is the spatial action of the scattering coefficient: one direct
    reflection plus the transmitted resonance train.
    """
    if bm.w == 0.0:
        raise DegenerateRegime("scattering needs w > 0")
    sup = f_in.support()
    if sup is None or sup[1] > 1e-12:
        raise EmptySupport("incoming packet must be supported on the left half-line")
    zero = StepPacket.zero()
    return block_row(bm, domain, (f_in, zero, zero), "iplus")


def translation_representation(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    sign: str,
) -> StepPacket:
    """Outgoing ('+') or incoming ('-') translation representer of f.

    Rows iplus ('+') and iminus ('-') of the block matrix: the identity on
    their own half-line, the scattering multipliers on the other two
    components; they intertwine the evolution with the rigid shift (tested).
    """
    if bm.w == 0.0:
        raise DegenerateRegime("translation representations need w > 0")
    dest = {"+": "iplus", "-": "iminus"}.get(sign)
    if dest is None:
        raise ValidationError(f"sign must be '+' or '-', got {sign!r}")
    return block_row(bm, domain, decompose(f, domain), dest)


# ----------------------------------------------------------------------
# correlations
# ----------------------------------------------------------------------


def correlation(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    g: StepPacket,
    t: float,
) -> complex:
    """<f, U(t) g> (conjugate-first pairing)."""
    return f.inner(evolve(bm, domain, g, t).packet)


def cesaro_decay(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    g: StepPacket,
    horizons,
):
    """Cesàro averages (1/2T) int_{-T}^{T} |<f, U(t) g>|^2 dt, exactly.

    The correlation is piecewise linear in t (cell edges of the evolved
    packet crossing cell edges of f or component boundaries), so |corr|^2 is
    piecewise quadratic and per-interval Simpson integrates it exactly.
    The rows of U(t) g are built once, on the windows that |t| <= max T
    reaches.  Only frequency-0 packets are supported here.
    """
    _require_steps("cesaro_decay", f, g)
    horizons = np.atleast_1d(np.asarray(horizons, dtype=float))
    if not (horizons.size and np.all(np.isfinite(horizons)) and np.all(horizons > 0)):
        raise ValidationError("Cesàro horizons must be positive and finite")
    reach = float(np.max(horizons))
    g_parts = decompose(g, domain)
    dest_packets = {}
    for d in COMPONENTS:
        lo, hi = domain.component(d)
        dest_packets[d] = block_row(bm, domain, g_parts, d, window=(lo - reach, hi + reach))
    f_parts = {tag: f.restrict(*domain.component(tag)) for tag in COMPONENTS}

    def corr(t):
        total = 0.0 + 0.0j
        for tag in COMPONENTS:
            gd = dest_packets[tag]
            fp = f_parts[tag]
            if gd.is_empty or fp.is_empty:
                continue
            lo, hi = domain.component(tag)
            total += fp.inner(gd.translate(t).restrict(lo, hi))
        return total

    crossing = [np.empty(0)]
    for tag in COMPONENTS:
        gd = dest_packets[tag]
        fp = f_parts[tag]
        if gd.is_empty:
            continue
        targets = [v for v in domain.component(tag) if np.isfinite(v)]
        if not fp.is_empty:
            targets.extend(fp.breakpoints().tolist())
        crossing.append(np.subtract.outer(targets, gd.breakpoints()).ravel())
    crossing = np.unique(np.concatenate(crossing))

    out = np.empty(horizons.shape)
    for i, T in enumerate(horizons):
        inside = crossing[(crossing > -T) & (crossing < T)]
        pts = np.concatenate(([-T], inside, [T])).tolist()
        ends = [abs(corr(t)) ** 2 for t in pts]
        total = 0.0
        for a, b, ya, yb in zip(pts[:-1], pts[1:], ends[:-1], ends[1:]):
            ym = abs(corr(0.5 * (a + b))) ** 2
            total += (b - a) / 6.0 * (ya + 4.0 * ym + yb)
        out[i] = total / (2.0 * T)
    return out if out.size > 1 else float(out[0])
