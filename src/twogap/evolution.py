"""Unitary evolution of step packets and its scattering bookkeeping.

The evolution at time t acts on a packet supported in the open domain by a
3x3 block of translation multipliers followed by the rigid shift by t and
restriction back to the components.  The (dest, src) block kinds live in
``multipliers.BLOCK_KIND``; ``block_row`` applies them at finite times
(evolution, single block entries) and ``_train_row`` at t = inf
(scattering, both translation representations): all are rows of that matrix.
The packet picture of, say, a left-launched packet is: the identity copy
keeps moving on I_minus, the transmitted geometric train enters the middle
interval through a_inv, and the outgoing train leaves through a_inv_c (one
direct reflection plus the resonance sum).

Propagation is finite: by time t only about |t| / ell reflections have
happened.  So the finite-time routines (``evolve_many``, ``evolve``,
``block_matrix_entry``, ``correlation``, ``cesaro_decay``) give ``block_row``
the span of times a row serves; it applies only the lattice terms that reach
the component over that span: exact finite sums with truncation 0, at a
cost that follows the reflections, not w.  A time grid builds each row once
and sums the shifted, clipped rows of all its times in one batched sweep
(``batch.sum_batch``), bit for bit the sweep of each time alone.
``scatter`` and ``translation_representation`` describe t = inf: their rows
are a head plus one geometric train (``packets.PacketTrain``), built from
the few terms of ``multipliers.train_terms`` at a cost of O(cells of f) at
every w, with exact norms and pairings.  ``cesaro_decay`` evolves nothing
per time: it sums ramps over cell-edge pairs and integrates each panel in
closed form.

The same formulas hold for negative t (the derivation is time-sign-free);
the adjoint relation <U(-t) f, g> = <f, U(t) g> is verified in the tests
rather than used as a definition.

The middle interval alone is an explicit wrap: what leaves at alpha comes
back at 1 scaled by z = q e(-psi).  For w > 0, t >= 0 that is the
compressed semigroup.  At w = 0, |z| = 1 and ``evolve_many`` needs no row:
the middle interval wraps, and the two half-lines are one line with the
cut [0, beta] (``_splice``): mass crossing 0 rightward re-enters at beta
with phase -e(psi - theta), and mass crossing beta leftward goes back with
the conjugate phase.  Both take a whole time grid and return a
``batch.PacketBatch``, one row per time, from a fixed number of batched
sweeps.  ``_splice`` is also the native evolution of the point and
interval models of ``degenerate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, _require_coupled, e2pi
from .errors import EmptySupport, SupportViolation, ValidationError
from .multipliers import BLOCK_KIND, apply_multiplier, causal_multiplier, train_terms
from .batch import PacketBatch, sum_batch
from .packets import PacketTrain, StepPacket, sum_packets

__all__ = [
    "EvolutionResult",
    "evolve",
    "evolve_many",
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
    _require_kept(f, parts, "packet", "the domain")
    return parts


def _require_kept(f: StepPacket, parts, what: str, where: str) -> None:
    """The one leak rule: SupportViolation when the restrictions ``parts``
    of f lose more than 1e-12 max(1, ||f||^2) of its norm^2."""
    norm2 = f.norm2()
    lost = norm2 - sum(p.norm2() for p in parts)
    if lost > 1e-12 * max(1.0, norm2):
        raise SupportViolation(f"{what} carries mass {lost:.3e} off {where}")


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
    span,
) -> StepPacket:
    """Row ``dest`` of the block matrix applied to component parts, for the
    times of ``span`` = (t_lo, t_hi).

    ``parts`` holds one packet per source component, in COMPONENTS order;
    empty parts are skipped.  Returns the pre-shift packet
    sum_src M[dest, src] parts[src], each entry the exact finite sum of its
    lattice terms that reach the pre-shift window (lo - t_hi, hi - t_lo) of
    dest = (lo, hi): the packet is exact there (and meaningless outside it).
    An unknown ``dest`` raises ValidationError.
    """
    lo, hi = domain.component(dest)
    window = (lo - span[1], hi - span[0])
    pieces = []
    for src, fsrc in zip(COMPONENTS, parts):
        if fsrc.is_empty:
            continue
        kind = BLOCK_KIND[(dest, src)]
        if kind == "identity":
            pieces.append(fsrc)
            continue
        m = causal_multiplier(bm, domain, kind, fsrc.support(), window)
        pieces.append(apply_multiplier(m, fsrc))
    return sum_packets(pieces)


def _train_row(bm: BoundaryMatrix, domain: ExteriorDomain, parts, dest: str) -> PacketTrain:
    """Row ``dest`` ('iplus' or 'iminus') of the block matrix at t = inf.

    The identity part and the direct reflection of the scattering quotient
    make the head; the n = 0 terms of the two inverse kinds make the body of
    one train with ratio z = q e(-psi) and step ell on iplus (conj(z) and
    -ell on iminus, the mirrored kinds), and leak 1 - |z|^2 = w^2.
    """
    heads, bodies = [], []
    for src, fsrc in zip(COMPONENTS, parts):
        if fsrc.is_empty:
            continue
        kind = BLOCK_KIND[(dest, src)]
        if kind == "identity":
            heads.append(fsrc)
            continue
        m = train_terms(bm, domain, kind)
        for n, shift, weight in zip(m.indices, *m.terms()):
            (bodies if n == 0 else heads).append(fsrc.translate(-shift).scale(weight))
    z, ell = bm.b_entry, domain.ell
    if dest == "iminus":
        z, ell = z.conjugate(), -ell

    def gather(pieces):  # one piece is already canonical
        return pieces[0] if len(pieces) == 1 else sum_packets(pieces)

    return PacketTrain(gather(heads), gather(bodies), z, ell, bm.w * bm.w)


def evolve_many(bm: BoundaryMatrix, domain: ExteriorDomain, f: StepPacket, ts) -> list[EvolutionResult]:
    """U(t) f for each t of ``ts`` (finite reals), in input order.

    f is decomposed once.  For w > 0 each row is built once, on the span
    (min ts, max ts), at a cost that follows max |t| / ell reflections, not
    w; every row is then shifted and clipped for all t in one broadcast, and
    one batched sweep sums the pieces of every t.  At w = 0 the middle wrap
    and the half-line splice take the whole grid the same way.  Each result
    is bit for bit the packet one sweep per t would give; exact either way
    (truncation 0).  An empty ``ts`` raises ValidationError.
    """
    ts = [_finite_time(t) for t in ts]
    if not ts:
        raise ValidationError("evolve_many needs at least one time")
    parts = decompose(f, domain)
    if bm.w == 0.0:
        fm, f0, fp = parts
        halves, phase = fm + fp, -complex(e2pi(bm.psi - bm.theta))
        pieces = [_wrap_middle(bm, domain, f0, ts), _splice(halves, ts, domain.beta, phase)]
    else:
        span = (min(ts), max(ts))
        pieces = []
        for dest in COMPONENTS:
            g = block_row(bm, domain, parts, dest, span=span)
            if not g.is_empty:
                g = PacketBatch.tile(g, len(ts)).translate(ts)
                pieces.append(g.restrict(*domain.component(dest)))
    moved = sum_batch(pieces).packets() if pieces else [StepPacket.zero()] * len(ts)
    return [EvolutionResult(g, t, 0.0) for g, t in zip(moved, ts)]


def evolve(bm: BoundaryMatrix, domain: ExteriorDomain, f: StepPacket, t: float) -> EvolutionResult:
    """Unitary evolution U(t) f, w in [0, 1], finite real t: ``evolve_many`` at one t."""
    return evolve_many(bm, domain, f, [t])[0]


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
    _require_coupled(bm, "block_matrix_entry")
    fsrc = f.restrict(*domain.component(src))
    parts = [fsrc if tag == src else StepPacket.zero() for tag in COMPONENTS]
    g = block_row(bm, domain, parts, dest, span=(t, t))
    return g.translate(t).restrict(*domain.component(dest))


# ----------------------------------------------------------------------
# the middle-interval wrap and the cut-line splice
# ----------------------------------------------------------------------


def _wrap_middle(bm, domain, f0, ts) -> PacketBatch:
    """Damped wrap of the middle interval, z = ``bm.b_entry`` per pass, for
    every t of ``ts`` at once: the compressed semigroup for w > 0, t >= 0;
    unitary at w = 0 (any t).  A row whose shifted packet spills nothing
    past alpha is its clipped shift, unswept."""
    ell = domain.ell
    rest = [t % ell for t in ts]
    passes = [round((t - r) / ell) for t, r in zip(ts, rest)]
    turn = {m: bm.q**m * complex(e2pi(-bm.psi * m)) for m in set(passes)}
    g = PacketBatch.tile(f0, len(ts)).translate(rest).scale([turn[m] for m in passes])
    inside = g.restrict(1.0, domain.alpha)
    spill = g.restrict(domain.alpha, domain.alpha + ell)
    spills = spill.occupied()
    if not spills.any():
        return inside
    wrapped = sum_batch([inside, spill.translate(-ell).scale(bm.b_entry)])
    return PacketBatch.select(spills, wrapped, inside)


def _splice(f, ts, width, phase) -> PacketBatch:
    """Shift by each t of ``ts`` on the line with [0, width] removed (width
    0: a point).

    Mass that crosses 0 rightward jumps by ``width`` and gains ``phase``;
    mass that crosses ``width`` leftward jumps back with conj(phase).
    """
    ts = np.asarray(ts, dtype=float)
    ahead = ts >= 0  # the left half moves right; else the right half moves left
    left = PacketBatch.tile(f.restrict(hi=0.0), len(ts))
    right = PacketBatch.tile(f.restrict(lo=width), len(ts))
    moved = PacketBatch.select(ahead, left, right).translate(ts)
    stay = moved.restrict(np.where(ahead, -np.inf, width), np.where(ahead, 0.0, np.inf))
    cross = moved.restrict(np.where(ahead, 0.0, -np.inf), np.where(ahead, np.inf, width))
    cross = cross.translate(np.where(ahead, width, -width))
    cross = cross.scale(np.where(ahead, phase, np.conj(phase)))
    still = PacketBatch.select(ahead, right, left).translate(ts)
    return sum_batch([sum_batch([stay, cross]), still])


# ----------------------------------------------------------------------
# scattering pictures
# ----------------------------------------------------------------------


def scatter(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f_in: StepPacket,
) -> PacketTrain:
    """Map an incoming packet (supported on I_minus) to its outgoing image.

    This is the spatial action of the scattering coefficient: one direct
    reflection (the head) plus the transmitted resonance train, exact.
    """
    _require_coupled(bm, "scatter")
    sup = f_in.support()
    if sup is None or sup[1] > 1e-12:
        raise EmptySupport("incoming packet must be supported on the left half-line")
    zero = StepPacket.zero()
    return _train_row(bm, domain, (f_in, zero, zero), "iplus")


def translation_representation(
    bm: BoundaryMatrix,
    domain: ExteriorDomain,
    f: StepPacket,
    sign: str,
) -> PacketTrain:
    """Outgoing ('+') or incoming ('-') translation representer of f.

    Rows iplus ('+') and iminus ('-') of the block matrix at t = inf: the
    identity on their own half-line, the scattering multipliers on the other
    two components, as one exact train; they intertwine the evolution with
    the rigid shift (tested).
    """
    _require_coupled(bm, "translation_representation")
    dest = {"+": "iplus", "-": "iminus"}.get(sign)
    if dest is None:
        raise ValidationError(f"sign must be '+' or '-', got {sign!r}")
    return _train_row(bm, domain, decompose(f, domain), dest)


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

    Frequency-0 packets only.  A cell u of f on (a, b) and a cell v on (c, d)
    of the pre-shift row of U(t) g on its component overlap by ramp(t-(a-d))
    - ramp(t-(a-c)) - ramp(t-(b-d)) + ramp(t-(b-c)), ramp(x) = max(x, 0).
    One stable sort of the knots and cumulative slopes give <f, U(t) g> at
    each knot (cumulative slope times step), linear in between: a panel
    integrates to h/3 (|y_a|^2 + Re(y_a conj(y_b)) + |y_b|^2).  Rows are
    built once, on the window |t| <= max T reaches, where f has mass; no
    ``evolve`` or ``inner`` per panel, O(pairs log pairs).  A float for one
    horizon, else an array in input order; exactly 0 if no pair meets.
    """
    _require_steps("cesaro_decay", f, g)
    horizons = np.atleast_1d(np.asarray(horizons, dtype=float))
    if not (horizons.size and np.all(np.isfinite(horizons)) and np.all(horizons > 0)):
        raise ValidationError("Cesàro horizons must be positive and finite")
    reach = float(np.max(horizons))
    g_parts = decompose(g, domain)
    pairs = [[np.empty(0)] * 5]  # per cell pair: f cell (a, b), row cell (c, d), conj(u) v
    for tag in COMPONENTS:
        lo, hi = domain.component(tag)
        fp = f.restrict(lo, hi)
        if fp.waves:  # cells whose values all vanish carry no frequency
            row = block_row(bm, domain, g_parts, tag, span=(-reach, reach))
            uv = np.conj(fp.waves[0])[:, None] * row.waves.get(0, np.empty(0))
            cols = np.broadcast_arrays(fp.lo[:, None], fp.hi[:, None], row.lo, row.hi, uv)
            pairs.append([x.ravel() for x in cols])
    a, b, c, d, p = (np.concatenate(x) for x in zip(*pairs))
    live = (a - d < reach) & (b - c > -reach)  # a pair meets for a - d < t < b - c
    a, b, c, d, p = (x[live] for x in (a, b, c, d, p))
    # every +-T joins the knots with a zero jump, so y holds the ends too
    knots = np.concatenate((a - d, a - c, b - d, b - c, -horizons, horizons))
    order = np.argsort(knots, kind="stable")
    jumps = np.concatenate((p, -p, -p, p, np.zeros(2 * horizons.size)))
    knots, jumps = knots[order], jumps[order]
    # add back each addition's rounding error (TwoSum): a passed pair's slopes cancel
    slope = np.cumsum(jumps)
    prev = np.concatenate(([0.0], slope[:-1]))
    step = slope - prev
    slope = slope + np.cumsum((prev - (slope - step)) + (jumps - step))
    y = np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(knots))))
    out = np.zeros(horizons.shape)
    for i, T in enumerate(horizons):
        if not np.any((a - d < T) & (b - c > -T)):
            continue  # no pair meets for |t| < T: exactly 0
        inside = (knots >= -T) & (knots <= T)
        ts, ys = knots[inside], y[inside]
        panel = np.abs(ys[:-1]) ** 2 + np.real(ys[:-1] * np.conj(ys[1:])) + np.abs(ys[1:]) ** 2
        out[i] = float(np.sum(np.diff(ts) / 3.0 * panel)) / (2.0 * T)
    return out if out.size > 1 else float(out[0])
