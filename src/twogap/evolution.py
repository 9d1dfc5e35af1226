"""Unitary evolution of step packets and its scattering bookkeeping.

The evolution at time t acts on a packet supported in the open domain by a
3x3 block of translation multipliers followed by the rigid shift by t and
restriction back to the components.  The (dest, src) block kinds live in
``multipliers.BLOCK_KIND``; ``block_row`` (and ``_block_rows`` for several
rows at once) builds them at finite times (evolution, single block entries)
and ``_train_row`` at t = inf (scattering, both translation
representations): all are rows of that matrix.  A row is never summed
block by block: it gathers the unswept translates of every block
(``packets._translates``) and sums them in one canonical sweep.  The rows
of one call read the causal terms of all their blocks from one
``multipliers.causal_terms`` call, so from one coefficient table, and each
source part is translated once, by the terms of all its blocks.
The packet picture of, say, a left-launched packet is: the identity copy
keeps moving on I_minus, the transmitted geometric train enters the middle
interval through a_inv, and the outgoing train leaves through a_inv_c (one
direct reflection plus the resonance sum).

Propagation is finite: by time t only about |t| / ell reflections have
happened.  So the finite-time routines (``evolve_many``, ``evolve``,
``block_matrix_entry``, ``correlation``, ``cesaro_decay``) give ``block_row``
the span of times a row serves; it applies only the lattice terms that reach
the component over that span: exact finite sums, with no truncation, at a
cost that follows the reflections, not w.  ``evolve_many`` builds its three
rows once per time grid in one sweep; shifted, each lies on its own
component, so they add with no sweep (``batch.merge_batch``).
``cesaro_decay`` builds its rows in one sweep too.
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
the conjugate phase.  Both only move cells past each other: for a whole
time grid they return their pieces, each a ``batch.PacketBatch`` with one
row per time, which lie side by side and add with no sweep
(``batch.merge_batch``).  ``_splice`` is also the native evolution of the
point and interval models of ``degenerate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import BoundaryMatrix, ExteriorDomain, _require_coupled, e2pi
from .errors import EmptySupport, SupportViolation, ValidationError
from .multipliers import BLOCK_KIND, causal_terms, train_terms
from .batch import PacketBatch, merge_batch
from .packets import PacketTrain, StepPacket, _nonzero, _sum_cells, _sum_rows, _translates

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
    fm, on_0_1, f0, on_alpha_beta, fp = _partition(f, (0.0, 1.0, domain.alpha, domain.beta))
    _require_kept(f, (on_0_1, on_alpha_beta), "packet", "the domain")
    return fm, f0, fp


def _partition(f: StepPacket, cuts):
    """f cut at each of ``cuts``, in one batched restrict: bit for bit
    ``StepPacket.restrict`` to (-inf, cuts[0]), (cuts[0], cuts[1]), ..."""
    cuts = np.concatenate(([-np.inf], cuts, [np.inf]))
    return PacketBatch.tile(f, len(cuts) - 1).restrict(cuts[:-1], cuts[1:]).packets()


def _require_kept(f: StepPacket, removed, what: str, where: str) -> None:
    """The one leak rule: SupportViolation when the ``removed`` pieces of f
    (from ``_partition``) carry more than 1e-12 max(1, ||f||^2) of norm^2;
    ||f||^2 is taken only when that mass exceeds 1e-12."""
    lost = sum(p.norm2() for p in removed)
    if lost > 1e-12 and lost > 1e-12 * max(1.0, f.norm2()):
        raise SupportViolation(f"{what} carries mass {lost:.3e} off {where}")


@dataclass(frozen=True)
class EvolutionResult:
    """Evolved packet at time t."""

    packet: StepPacket
    t: float


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
    parts without a frequency are skipped.  Returns the pre-shift packet
    sum_src M[dest, src] parts[src], each entry the exact finite sum of its
    lattice terms that reach the pre-shift window (lo - t_hi, hi - t_lo) of
    dest = (lo, hi): the packet is exact there (and meaningless outside it).
    The translates of every entry are gathered unswept and summed in one
    canonical sweep.  An unknown ``dest`` raises ValidationError.
    """
    return _block_rows(bm, domain, parts, (dest,), span).packets()[0]


def _block_rows(bm, domain, parts, dests, span) -> PacketBatch:
    """``block_row`` for each of ``dests``: the rows of one batch, from one
    batched sweep (``packets._sum_rows``).  The causal terms of every block
    come from one ``multipliers.causal_terms`` call, so from one table of
    coefficients; each source part is translated once, by the terms of all
    its blocks (each cell labelled with its block's row), and adds its own
    cells to the row of its identity block.  Within a row the cells keep
    their source and term order, so each row sums as its own sweep."""
    windows = []
    for dest in dests:
        lo, hi = domain.component(dest)
        windows.append((lo - span[1], hi - span[0]))
    # cells with no frequency (none, or all values zero) add nothing
    sources = [(src, fsrc) for src, fsrc in zip(COMPONENTS, parts) if fsrc.waves]
    requests, blocks = [], []  # per source: the rows of its causal and identity blocks
    for src, fsrc in sources:
        kinds = [BLOCK_KIND[(dest, src)] for dest in dests]
        causal = [b for b, kind in enumerate(kinds) if kind != "identity"]
        support = fsrc.support()
        requests += [(kinds[b], support, windows[b]) for b in causal]
        blocks.append((causal, [b for b, kind in enumerate(kinds) if kind == "identity"]))
    counts, shifts, weights = causal_terms(bm, domain, requests)
    pieces, done, end = [], 0, 0
    for (_, fsrc), (causal, own) in zip(sources, blocks):
        if causal:
            n_terms = counts[done : done + len(causal)]
            terms = slice(end, end + sum(n_terms))
            done, end = done + len(causal), terms.stop
            row = np.repeat(causal, np.multiply(n_terms, fsrc.n_cells))
            pieces.append((row, *_translates(fsrc, shifts[terms], weights[terms])))
        pieces += [(np.full(fsrc.n_cells, b), fsrc.lo, fsrc.hi, fsrc.waves) for b in own]
    return PacketBatch(len(dests), *_sum_rows(len(dests), pieces))


def _train_row(bm: BoundaryMatrix, domain: ExteriorDomain, parts, dest: str) -> PacketTrain:
    """Row ``dest`` ('iplus' or 'iminus') of the block matrix at t = inf.

    The identity part and the direct reflection of the scattering quotient
    make the head; the n = 0 terms of the two inverse kinds make the body of
    one train with ratio z = q e(-psi) and step ell on iplus (conj(z) and
    -ell on iminus, the mirrored kinds), and leak 1 - |z|^2 = w^2.  Head and
    body each sum the unswept cells of their terms (``packets._translates``)
    in one sweep; a lone term is a canonical packet moved and scaled whole,
    and needs none.
    """
    heads, bodies = [], []
    for src, fsrc in zip(COMPONENTS, parts):
        if not fsrc.waves:
            continue
        kind = BLOCK_KIND[(dest, src)]
        if kind == "identity":
            heads.append((fsrc.lo, fsrc.hi, fsrc.waves))
            continue
        for n, shift, weight in zip(*train_terms(bm, domain, kind)):
            term = _translates(fsrc, np.array([shift]), np.array([weight]))
            (bodies if n == 0 else heads).append(term)
    z, ell = bm.b_entry, domain.ell
    if dest == "iminus":
        z, ell = z.conjugate(), -ell

    def gather(cells):
        if len(cells) == 1:
            lo, hi, waves = cells[0]
            return StepPacket(lo, hi, _nonzero(waves), _trusted=True)
        return StepPacket(*_sum_cells(cells), _trusted=True)

    return PacketTrain(gather(heads), gather(bodies), z, ell, bm.w * bm.w)


def evolve_many(bm: BoundaryMatrix, domain: ExteriorDomain, f: StepPacket, ts) -> list[EvolutionResult]:
    """U(t) f for each t of ``ts`` (finite reals), in input order.

    f is decomposed once.  For w > 0 the three rows are built once, on the
    span (min ts, max ts), in one sweep, at a cost that follows max |t| /
    ell reflections, not w; they are shifted and clipped for all t in one
    broadcast, and each t merges its rows (``batch.merge_batch``, no sweep).
    At w = 0 no row is built and nothing is swept: the pieces of the middle
    wrap and of the half-line splice, for the whole grid, merge the same
    way.  Exact, with no truncation.  An empty ``ts`` raises ValidationError.
    """
    ts = [_finite_time(t) for t in ts]
    if not ts:
        raise ValidationError("evolve_many needs at least one time")
    parts = decompose(f, domain)
    if bm.w == 0.0:
        fm, f0, fp = parts
        phase = -complex(e2pi(bm.psi - bm.theta))
        pieces = _wrap_middle(bm, domain, f0, ts) + _splice(fm, fp, ts, domain.beta, phase)
    else:
        rows = _block_rows(bm, domain, parts, COMPONENTS, (min(ts), max(ts)))
        clip = np.tile(domain.components, (len(ts), 1)).T  # grid row 3 i + d: row d, time i
        g = PacketBatch.tile(rows, len(ts)).translate(np.repeat(ts, 3)).restrict(*clip)
        pieces = [PacketBatch(len(ts), g.row // 3, g.lo, g.hi, g.waves)]
    moved = merge_batch(pieces).packets()
    return [EvolutionResult(g, t) for g, t in zip(moved, ts)]


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


def _wrap_middle(bm, domain, f0, ts) -> list:
    """Damped wrap of the middle interval, z = ``bm.b_entry`` per pass, for
    every t of ``ts`` at once: the compressed semigroup for w > 0, t >= 0;
    unitary at w = 0 (any t).  Two batches that lie side by side, to be
    added by ``batch.merge_batch`` with no sweep: f0 shifted by t mod ell
    (and scaled by z per whole pass) on (1, alpha), and its spill past
    alpha wrapped back onto (1, 1 + t mod ell) and scaled by z."""
    ell = domain.ell
    rest = [t % ell for t in ts]
    passes = [round((t - r) / ell) for t, r in zip(ts, rest)]
    turn = {m: bm.q**m * complex(e2pi(-bm.psi * m)) for m in set(passes)}
    g = PacketBatch.tile(f0, len(ts)).translate(rest).scale([turn[m] for m in passes])
    spill = g.restrict(domain.alpha, domain.alpha + ell).translate(-ell).scale(bm.b_entry)
    return [g.restrict(1.0, domain.alpha), spill]


def _splice(left, right, ts, width, phase) -> list:
    """Shift the halves ``left`` (on x < 0) and ``right`` (on x > width) by
    each t of ``ts`` on the line with [0, width] removed (width 0: a point),
    as four batches that lie side by side, to be added by
    ``batch.merge_batch`` with no sweep.

    Mass of ``left`` that crosses 0 jumps by ``width`` and gains ``phase``;
    mass of ``right`` that crosses ``width`` jumps back with conj(phase).
    For each sign of t one of the two crossing pieces is empty.
    """
    left = PacketBatch.tile(left, len(ts)).translate(ts)
    right = PacketBatch.tile(right, len(ts)).translate(ts)
    return [
        left.restrict(hi=0.0),
        left.restrict(lo=0.0).translate(width).scale(phase),
        right.restrict(lo=width),
        right.restrict(hi=width).translate(-width).scale(np.conj(phase)),
    ]


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
    """<f, U(t) g> (conjugate-first pairing).  Obstacle mass on f or g
    raises SupportViolation (``decompose``)."""
    decompose(f, domain)
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
    Obstacle mass on f or g raises SupportViolation (``decompose``).
    """
    _require_steps("cesaro_decay", f, g)
    horizons = np.atleast_1d(np.asarray(horizons, dtype=float))
    if not (horizons.size and np.all(np.isfinite(horizons)) and np.all(horizons > 0)):
        raise ValidationError("Cesàro horizons must be positive and finite")
    reach = float(np.max(horizons))
    # cells whose values all vanish carry no frequency: no row for them
    f_parts = dict(zip(COMPONENTS, decompose(f, domain)))
    tags = [tag for tag in COMPONENTS if f_parts[tag].waves]
    rows = _block_rows(bm, domain, decompose(g, domain), tags, (-reach, reach)).packets()
    pairs = [[np.empty(0)] * 5]  # per cell pair: f cell (a, b), row cell (c, d), conj(u) v
    for tag, row in zip(tags, rows):
        fp = f_parts[tag]
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
