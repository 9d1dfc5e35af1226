"""Compactly supported piecewise-oscillatory step functions ("packets").

A StepPacket is a finite union of disjoint cells [lo_i, hi_i) carrying a
small set of waves: on cell i the function equals

    sum_n  values[n][i] * e(n x),          e(x) = exp(i 2 pi x),

with integer frequencies n.  Plain step functions are the n = 0 case.  The
oscillatory cells keep the class closed under every operation used here:
translation multiplies the frequency-n coefficient by e(-n t), restriction
clips cells, and sums of lattice translates stay in the class.

Storage is columnar (lo/hi arrays plus one complex coefficient array per
frequency).  The canonical form: cells sorted, disjoint, zero-width and
zero-value cells dropped, adjacent cells with equal coefficient stacks
merged (equality tolerance 1e-14).  Every sum, ``box`` and
``from_breakpoints`` make it.  The untrusted constructor
``StepPacket(lo, hi, waves)`` only validates the cells: touching cells
whose stacks agree, and zero-valued cells, stay as given until a sum
(``+ StepPacket.zero()``) makes them canonical.  These three constructors
refuse an infinite value (ValidationError): the sweep's snap would erase
it, and its running sum would turn the next gap into NaN.  A NaN value is
kept, so bad data never sums to zero.
Every constructor and operation keeps one frequency rule: the keys of
``waves`` are in ascending order, and each key has at least one nonzero
value (a frequency whose values all vanish, say by underflow, is dropped).
Edges are identified left to right: an edge within EDGE_TOL * max(1, |x|)
of its left neighbour joins that neighbour's cluster, and the cluster's
leftmost edge stands for it, so a chain of close edges becomes one edge.
Every sum of cells that may overlap, of one packet or of each row of a
batch, enters the one canonical sweep ``_sweep`` through ``_sum_rows``;
cells that only lie side by side, as pieces moved past each other do, need
only ``_merge_rows``, which closes their edges by the same rule and merges
agreeing neighbours with no sweep.  ``StepPacket`` and
``batch.PacketBatch`` run the same cell operations (``_translate``,
``_scale``, ``_restrict``): the edge rule, the snap and the merges are
decided here alone.

A PacketTrain is a packet followed by a geometric train of its lattice
translates, head + sum_{n >= 0} ratio^n body(. + n step): the t = inf
pictures of the model.  Its norms, pairings and restrictions are exact
finite sums over the terms that reach a bounded window.

All integrals are closed-form; nothing in this module is approximate beyond
float arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import _real_lambda, e2pi
from .errors import OrderingViolation, ValidationError

__all__ = [
    "StepPacket",
    "PacketTrain",
    "sum_packets",
    "osc_integral",
]

# Canonical-form tolerances: edges/values closer than this are identified.
EDGE_TOL = 1e-14
VALUE_TOL = 1e-14
# Values this small relative to the packet peak are artifacts of edge-sweep
# cancellation, not data; they are snapped to zero by the sweep.
SNAP_REL = 1e-15


def _wider(width, x):
    """The edge rule's width test: ``width`` exceeds EDGE_TOL * max(1, |x|)."""
    return width > EDGE_TOL * np.maximum(1.0, np.abs(x))


def osc_integral(u, v, k):
    """Integral of e(k x) over [u, v], stable for k near 0.

    Equals (v-u) e(k (u+v)/2) sinc(k (v-u)) with the normalized sinc, so no
    cancellation occurs for small k.  Broadcasts over array arguments.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    k = np.asarray(k, dtype=float)
    width = v - u
    return width * e2pi(k * (u + v) / 2.0) * np.sinc(k * width)


def _translates(p, shifts, weights):
    """The cells of sum_k weights[k] p(. + shifts[k]), unswept, in shift
    order, as (lo, hi, waves) for ``_sum_cells``: p(x + s) moves a cell by
    -s, and a frequency-n value v becomes v e(n s).  Each term's cells have
    the bits they have when the term is translated alone."""
    waves = {}
    for freq, vals in p.waves.items():
        # not ``*``: from 16,384 terms numpy would multiply into the
        # temporary phase array, by a loop that rounds differently
        wf = np.multiply(weights, e2pi(freq * shifts)) if freq else weights
        waves[freq] = (vals[None, :] * wf[:, None]).ravel()
    lo = (p.lo[None, :] - shifts[:, None]).ravel()
    hi = (p.hi[None, :] - shifts[:, None]).ravel()
    return lo, hi, waves


def _translate(lo, hi, waves, s, row=None):
    """(lo, hi, waves) of x -> f(x - s): the cells moved by s, and a
    frequency-n value times e(-n s), one scalar phase per row.  ``s`` is one
    shift, or an array of one per row with ``row`` the row of each cell."""
    out = {}
    for n, v in waves.items():
        if n:  # a unit phase keeps a nonzero value nonzero, even a subnormal one
            phase = [complex(e2pi(-n * x)) for x in ([s] if row is None else s.tolist())]
            v = v * (phase[0] if row is None else np.array(phase)[row])
        out[n] = v
    shift = s if row is None else s[row]
    return lo + shift, hi + shift, out


def _scale(lo, hi, waves, c):
    """(keep, lo, hi, waves): the cells times c, one weight or an array of
    one per cell; a cell of weight 0 drops out, and ``keep`` picks the rest.
    A frequency whose values all underflow is dropped."""
    if isinstance(c, np.ndarray):
        keep = slice(None) if c.all() else c != 0.0
        c = c[keep]
    else:
        keep = slice(None) if c != 0 else slice(0)
    return keep, lo[keep], hi[keep], _nonzero({n: c * v[keep] for n, v in waves.items()})


def _restrict(lo, hi, waves, a, b):
    """(keep, lo, hi, waves): the cells cut to the window (a, b), one for all
    cells or an array of one per cell; ``keep`` picks the cells left.  Bit
    for bit the sweep of the cut cells: the edge rule drops a cell no wider
    than EDGE_TOL * max(1, |lo|, |hi|), no cut edge is -0.0, and a frequency
    with no value left is dropped."""
    lo, hi = np.maximum(lo, a + 0.0), np.minimum(hi, b + 0.0)
    # max(|lo|, |hi|) wherever lo <= hi; a cell with lo > hi is dropped anyway
    keep = _wider(hi - lo, np.maximum(hi, -lo))
    return keep, lo[keep], hi[keep], _nonzero({n: v[keep] for n, v in waves.items()})


def _sweep(size, row, lo, hi, vals):
    """The canonical sweep: canonical cells of every row of a batch, in one
    pass.  Enter it through ``_sum_rows``.

    Cell i, of row ``row[i]`` (0 <= row[i] < size), carries ``vals[n][i]``
    for each frequency n of ``vals`` (at least one; 0.0 where its packet
    lacks n: adding a zero changes no sum), and overlapping cells of a row
    add.  Returns (row, lo, hi, waves): the cells of every row in row order,
    a column per key of ``vals`` (a column may have no nonzero value left).

    The one empty rule: a cell whose values all vanish adds nothing, not
    even edges, whatever else its packet holds; nor does a cell that the
    edge rule finds too narrow.  Both are dropped before the edges cluster.

    Rows never meet: the edge sort runs on (row, edge) pairs, and row b's
    sweep runs along row b of a (size x edges) grid, so each row gets the
    edge clusters (``_edge_clusters``), ``add.at`` and ``cumsum`` order,
    SNAP_REL peak and merges it would get as a batch of one.
    """
    ok = _wider(hi - lo, lo) & functools.reduce(np.logical_or, [v != 0.0 for v in vals.values()])
    row, lo, hi = row[ok], lo[ok], hi[ok]
    vals = {n: v[ok] for n, v in vals.items()}
    k = len(lo)
    edges, erow, where = _edge_clusters(np.concatenate((lo, hi)), np.concatenate((row, row)))
    # edge j of row b sits at column j of row b of the grid
    count = np.bincount(erow, minlength=size)
    width = int(count.max(initial=0))
    slot = erow * width + np.arange(len(edges)) - (np.cumsum(count) - count)[erow]
    where = slot[where]
    opens = (erow[1:] == erow[:-1]).nonzero()[0]  # edge j opens the interval to j + 1
    waves = {}
    for n, v in vals.items():
        delta = np.zeros(size * width, dtype=complex)
        np.add.at(delta, where[:k], v)
        np.add.at(delta, where[k:], -v)
        waves[n] = np.cumsum(delta.reshape(size, width), axis=1).ravel()[slot[opens]]
    lo, hi, row = edges[opens], edges[opens + 1], erow[opens]

    # Snap sweep-cancellation residue to exact zero, against each row's peak;
    # a cell is kept when a value survives the snap (a NaN one too).
    mags = [np.abs(v) for v in waves.values()]
    big = functools.reduce(np.maximum, mags)
    peak = np.zeros(size)
    np.maximum.at(peak, row, big)
    floor = SNAP_REL * peak[row]
    for v, mag in zip(waves.values(), mags):
        v[mag <= floor] = 0.0

    occupied = ~(big <= floor) & (big != 0.0)
    lo, hi, row = lo[occupied], hi[occupied], row[occupied]
    waves = {n: v[occupied] for n, v in waves.items()}
    touching = (row[1:] == row[:-1]) & (hi[:-1] >= lo[1:] - EDGE_TOL * np.maximum(1.0, np.abs(lo[1:])))
    return _merge_adjacent(row, lo, hi, waves, touching)


def _distinct(x):
    """``np.unique`` of a 1-d array, by the same sort and repeat test: a
    plain ``np.unique`` first imports numpy.ma (about 10 ms, numpy 2.4)."""
    x = np.sort(x)
    first = np.ones(len(x), dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return x[first]


def _nonzero(waves):
    """The frequencies of ``waves`` that keep a nonzero value."""
    return {n: v for n, v in waves.items() if v.any()}


def _edge_clusters(ends, end_row):
    """(edges, their rows, the edge of each end) under the edge rule, per
    row of a batch (``end_row`` gives each end's row).

    The ends are sorted by row, then by value; an end within
    EDGE_TOL * max(1, |x|) of its left neighbour in the same row (an equal
    one too) joins that neighbour's cluster, and the cluster's leftmost end
    stands for every end in it.
    """
    ends = ends + 0.0  # every zero end becomes +0.0: no order of equal zeros shows
    order = np.lexsort((ends, end_row))
    x, r = ends[order], end_row[order]
    starts = np.ones(len(x), dtype=bool)
    starts[1:] = _wider(x[1:] - x[:-1], x[1:]) | (r[1:] != r[:-1])
    where = np.empty(len(x), dtype=int)
    where[order] = starts.cumsum() - 1
    return x[starts], r[starts], where


def _merge_adjacent(row, lo, hi, waves, touching):
    """(row, lo, hi, waves) with touching cells whose coefficient stacks
    agree merged, each run into its first cell, until no touching pair
    agrees; ``touching[i]`` says that cell i + 1 starts where cell i ends,
    in the same row.

    A pass joins each cell to its left neighbour when their stacks agree
    (``_agree``) and keeps the first values of every run; a run that grew
    now ends at a cell other than the one compared, so it is compared again
    with the run after it, pass after pass.  A pass that joins nothing adds
    no work."""
    if not touching.any():
        return row, lo, hi, waves
    stacks = np.array(list(waves.values())).reshape(len(waves), len(lo))  # a row per frequency
    mag = np.abs(stacks)
    joins = touching & _agree(stacks, mag, slice(None, -1), slice(1, None))
    if not joins.any():
        return row, lo, hi, waves
    # runs of cells first[j]..last[j]; a run starts at every cell that does
    # NOT join its predecessor
    first = np.concatenate(([0], (~joins).nonzero()[0] + 1))
    last = np.concatenate((first[1:], [len(lo)])) - 1
    grew = last > first
    while True:
        left = np.flatnonzero(grew[:-1] & touching[last[:-1]])
        if not len(left):
            break
        agree = _agree(stacks, mag, first[left], first[left + 1])
        if not agree.any():
            break
        joins = np.zeros(len(first) - 1, dtype=bool)
        joins[left[agree]] = True
        keep = np.concatenate(([0], (~joins).nonzero()[0] + 1))
        end = np.concatenate((keep[1:], [len(first)])) - 1
        grew = end > keep
        first, last = first[keep], last[end]
    return row[first], lo[first], hi[last], {n: v[first] for n, v in waves.items()}


def _agree(stacks, mag, left, right):
    """Whether the cells ``left`` and ``right`` (columns of ``stacks``, a row
    per frequency, with magnitudes ``mag``) agree: each value within
    VALUE_TOL * max(1, |left value|, |right value|)."""
    scale = np.maximum(1.0, np.maximum(mag[:, left], mag[:, right]))
    return (np.abs(stacks[:, left] - stacks[:, right]) <= VALUE_TOL * scale).all(axis=0)


class StepPacket:
    """Piecewise-oscillatory step function with compact support."""

    __slots__ = ("lo", "hi", "waves")

    def __init__(self, lo, hi, waves, *, _trusted=False):
        # trusted callers pass sorted, disjoint 1-d float lo/hi and 1-d
        # complex values keyed by ascending int frequencies, each with a
        # nonzero value: they are stored as given
        if not _trusted:
            lo = np.atleast_1d(np.asarray(lo, dtype=float))
            hi = np.atleast_1d(np.asarray(hi, dtype=float))
            waves = {int(n): np.atleast_1d(np.asarray(v, dtype=complex)) for n, v in waves.items()}
            if lo.shape != hi.shape or lo.ndim != 1:
                raise ValidationError("lo/hi must be matching 1-d arrays")
            for n, v in waves.items():
                if v.shape != lo.shape:
                    raise ValidationError(f"coefficients for frequency {n} have wrong length")
                if np.isinf(v).any():
                    raise ValidationError(f"coefficients for frequency {n} must not be infinite")
            if len(lo):
                if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
                    raise ValidationError("cell edges must be finite")
                if not np.all(hi > lo):
                    raise OrderingViolation("every cell needs hi > lo")
                if not np.all(lo[1:] >= hi[:-1] - EDGE_TOL):
                    raise OrderingViolation("cells must be disjoint and sorted")
            waves = _nonzero(dict(sorted(waves.items())))
        self.lo = lo
        self.hi = hi
        self.waves = waves

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls) -> "StepPacket":
        return cls(np.empty(0), np.empty(0), {}, _trusted=True)

    @classmethod
    def box(cls, lo: float, hi: float, value: complex = 1.0, freq: int = 0) -> "StepPacket":
        """Single cell: value * e(freq x) on [lo, hi).

        Bit for bit ``sum_packets([box])``: a cell no wider than the edge
        rule's EDGE_TOL * max(1, |lo|, |hi|) is the zero packet, and edges and
        value are stored as the sweep stores them (no -0.0).  An infinite
        value is a ValidationError (the sweep would erase it); NaN is kept.
        """
        if not (hi > lo):
            raise OrderingViolation(f"box needs hi > lo, got [{lo}, {hi})")
        value = complex(value)
        if math.isinf(value.real) or math.isinf(value.imag):
            raise ValidationError(f"box value must not be infinite, got {value!r}")
        lo, hi = float(lo) + 0.0, float(hi) + 0.0
        if value == 0 or not _wider(hi - lo, max(abs(lo), abs(hi))):
            return cls.zero()
        return cls(
            np.array([lo]),
            np.array([hi]),
            {int(freq): np.array([0j + value])},
            _trusted=True,
        )

    @classmethod
    def from_breakpoints(cls, breaks, values) -> "StepPacket":
        """Contiguous plain-step cells: len(breaks) = len(values) + 1."""
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=complex)
        if breaks.ndim != 1 or len(breaks) != len(values) + 1:
            raise ValidationError("need one more breakpoint than cell values")
        if np.isinf(values).any():
            raise ValidationError("cell values must not be infinite")
        if not np.all(np.diff(breaks) > 0):
            raise OrderingViolation("breakpoints must be strictly increasing")
        return cls(*_sum_cells([(breaks[:-1], breaks[1:], {0: values})]), _trusted=True)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self.lo)

    @property
    def is_empty(self) -> bool:
        return len(self.lo) == 0

    def support(self):
        """(leftmost, rightmost) edge of the support; None when empty."""
        if self.is_empty:
            return None
        return float(self.lo[0]), float(self.hi[-1])

    def breakpoints(self) -> np.ndarray:
        return _distinct(np.concatenate((self.lo, self.hi)))

    def frequencies(self):
        return list(self.waves)

    def max_abs(self) -> float:
        """Upper bound for sup|f| (sum of coefficient magnitudes per cell)."""
        if self.is_empty:
            return 0.0
        acc = np.zeros(self.n_cells)
        for v in self.waves.values():
            acc += np.abs(v)
        return float(np.max(acc))

    def cells(self):
        """List of (lo, hi, {freq: coeff}) with zero coefficients dropped."""
        out = []
        for i in range(self.n_cells):
            stack = {n: v[i] for n, v in self.waves.items() if v[i] != 0.0}
            out.append((float(self.lo[i]), float(self.hi[i]), stack))
        return out

    def __repr__(self):
        if self.is_empty:
            return "StepPacket(zero)"
        a, b = self.support()
        return (
            f"StepPacket({self.n_cells} cells on [{a:.6g}, {b:.6g}], "
            f"freqs={self.frequencies()})"
        )

    # ------------------------------------------------------------------
    # linear/geometric operations
    # ------------------------------------------------------------------

    def scale(self, c: complex) -> "StepPacket":
        _, lo, hi, waves = _scale(self.lo, self.hi, self.waves, complex(c))
        return StepPacket(lo, hi, waves, _trusted=True)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1.0)

    def __add__(self, other):
        if not isinstance(other, StepPacket):
            return NotImplemented  # a PacketTrain adds from its side
        return sum_packets([self, other])

    def __sub__(self, other):
        if not isinstance(other, StepPacket):
            return NotImplemented
        return sum_packets([self, other.scale(-1.0)])

    def translate(self, s: float) -> "StepPacket":
        """The packet x -> f(x - s); frequency-n coefficients gain e(-n s)."""
        return StepPacket(*_translate(self.lo, self.hi, self.waves, float(s)), _trusted=True)

    def conjugate(self) -> "StepPacket":
        waves = {-n: np.conj(v) for n, v in reversed(self.waves.items())}
        return StepPacket(self.lo, self.hi, waves, _trusted=True)

    def restrict(self, lo=-np.inf, hi=np.inf) -> "StepPacket":
        """Restriction to the interval (lo, hi); endpoints carry no mass.
        Bit for bit ``sum_packets([restrict])`` (``_restrict``)."""
        _, lo, hi, waves = _restrict(self.lo, self.hi, self.waves, lo, hi)
        return StepPacket(lo, hi, waves, _trusted=True)

    # ------------------------------------------------------------------
    # integrals
    # ------------------------------------------------------------------

    def norm2(self) -> float:
        """Squared L2 norm."""
        if self.is_empty:
            return 0.0
        width = self.hi - self.lo
        freqs = self.frequencies()
        total = 0.0
        for i, n in enumerate(freqs):
            vn = self.waves[n]
            total += float(np.sum(np.abs(vn) ** 2 * width))
            for m in freqs[i + 1:]:
                vm = self.waves[m]
                cross = np.sum(np.conj(vn) * vm * osc_integral(self.lo, self.hi, m - n))
                total += 2.0 * float(np.real(cross))
        return total

    def inner(self, other: "StepPacket") -> complex:
        """L2 pairing <f, g> = integral of conj(f) * g (conjugate-first)."""
        if isinstance(other, PacketTrain):
            return other.inner(self).conjugate()
        f, g = self, other
        if f.is_empty or g.is_empty:
            return 0.0 + 0.0j
        sup_f, sup_g = f.support(), g.support()
        lo = max(sup_f[0], sup_g[0])
        hi = min(sup_f[1], sup_g[1])
        if hi <= lo:
            return 0.0 + 0.0j
        edges = _distinct(np.concatenate((f.lo, f.hi, g.lo, g.hi)))
        edges = edges[(edges >= lo - EDGE_TOL) & (edges <= hi + EDGE_TOL)]
        if len(edges) < 2:
            return 0.0 + 0.0j
        u, v = edges[:-1], edges[1:]
        mid = 0.5 * (u + v)

        def levels(p):
            idx, inside = p._cell_at(mid)
            return {n: np.where(inside, w[idx], 0.0) for n, w in p.waves.items()}

        fl, gl = levels(f), levels(g)
        total = 0.0 + 0.0j
        for n, vn in fl.items():
            for m, vm in gl.items():
                if n == m:
                    total += np.sum(np.conj(vn) * vm * (v - u))
                else:
                    total += np.sum(np.conj(vn) * vm * osc_integral(u, v, m - n))
        return complex(total)

    def transform(self, lam) -> np.ndarray:
        """Fourier transform f^(lambda) = integral f(x) e(-lambda x) dx.

        Vectorized over a grid of real lambda (ValidationError otherwise).
        Exact per cell: each frequency-n cell contributes through
        osc_integral(u, v, n - lambda).
        """
        lam = _real_lambda(lam)
        scalar = lam.ndim == 0
        lam = np.atleast_1d(lam)
        out = np.zeros(lam.shape, dtype=complex)
        if not self.is_empty:
            chunk = max(1, int(2e6 / max(len(lam), 1)))
            for n, vals in self.waves.items():
                for start in range(0, self.n_cells, chunk):
                    sl = slice(start, start + chunk)
                    contrib = vals[sl, None] * osc_integral(
                        self.lo[sl, None], self.hi[sl, None], n - lam[None, :]
                    )
                    out += contrib.sum(axis=0)
        return out[0] if scalar else out

    def sample(self, x) -> np.ndarray:
        """Pointwise values (cells are closed on the left, open on the right)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros(x.shape, dtype=complex)
        if not self.is_empty:
            idx, inside = self._cell_at(x)
            for n, vals in self.waves.items():
                term = vals[idx] * (e2pi(n * x) if n else 1.0)
                out += np.where(inside, term, 0.0)
        return out[0] if scalar else out

    def _cell_at(self, x):
        """Per point of x (non-empty packet): the index of the cell [lo, hi)
        holding it (clipped into range) and whether one does."""
        idx = np.clip(np.searchsorted(self.lo, x, side="right") - 1, 0, self.n_cells - 1)
        return idx, (x >= self.lo[idx]) & (x < self.hi[idx])

    def distance2(self, other: "StepPacket") -> float:
        """Squared L2 distance to another packet or to a train."""
        if isinstance(other, PacketTrain):
            return other.distance2(self)
        return (self - other).norm2()


def sum_packets(packets) -> StepPacket:
    """Sum many packets in one edge sweep (cheaper than repeated add)."""
    return StepPacket(*_sum_cells((p.lo, p.hi, p.waves) for p in packets), _trusted=True)


def _sum_cells(parts):
    """(lo, hi, waves) of the sum of the packets given as (lo, hi, waves):
    ``_sum_rows`` for one row, under the frequency rule."""
    _, lo, hi, waves = _sum_rows(1, [(np.zeros(len(lo), dtype=int), lo, hi, waves) for lo, hi, waves in parts])
    # a merge within VALUE_TOL can zero a frequency out: drop after it
    return lo, hi, _nonzero(waves)


def _sum_rows(size, parts):
    """The one door into ``_sweep``: the canonical cells (row, lo, hi, waves)
    of the row-wise sum of parts (row, lo, hi, waves) over ``size`` rows."""
    if not any(waves for *_, waves in parts):  # not one value: the sum is zero
        return np.empty(0, dtype=int), np.empty(0), np.empty(0), {}
    return _sweep(size, *_gather(parts))


def _merge_rows(parts):
    """The row-wise sum of parts (row, lo, hi, waves), canonical packets
    moved whole that lie side by side in each row, with no sweep: their
    cells in (row, lo) order, and as in the sweep no -0.0.  An overlap wider
    than the edge rule raises OrderingViolation; a gap or overlap within it
    closes onto its leftmost edge, as the edge clusters close it, and then
    touching cells whose stacks agree merge, also across parts."""
    row, lo, hi, vals = _gather(parts)
    order = np.lexsort((lo, row))
    row, lo, hi = row[order], lo[order] + 0.0, hi[order] + 0.0
    gap = lo[1:] - hi[:-1]
    same = row[1:] == row[:-1]
    wide = _wider(np.abs(gap), lo[1:])
    if (same & wide & (gap < 0.0)).any():
        raise OrderingViolation("merged pieces overlap")
    near = same & ~wide  # after the close, exactly the cells that touch
    shut = near & (gap != 0.0)
    if shut.any():
        edge = np.minimum(hi[:-1], lo[1:])
        lo = np.concatenate((lo[:1], np.where(shut, edge, lo[1:])))
        hi = np.concatenate((np.where(shut, edge, hi[:-1]), hi[-1:]))
    return _merge_adjacent(row, lo, hi, {n: v[order] + 0.0 for n, v in vals.items()}, near)


def _gather(parts):
    """Parts (row, lo, hi, waves) as one (row, lo, hi, vals): a value column
    per frequency, 0.0 where a part lacks it."""
    row, lo, hi = (np.concatenate([part[k] for part in parts]) for k in range(3))
    vals = {}
    for n in sorted({n for *_, waves in parts for n in waves}):
        vals[n] = np.concatenate([w[n] if n in w else np.zeros(len(r), complex) for r, *_, w in parts])
    return row, lo, hi, vals


@dataclass(frozen=True, eq=False)
class PacketTrain:
    """The function head + sum_{n >= 0} ratio^n body(. + n step).

    Term n is the body shifted by -n step, so a positive step runs the train
    to -inf and a negative one to +inf.  ``leak`` is 1 - |ratio|^2 > 0, the
    share of |.|^2 a term loses to the next one; it is given, not computed,
    because 1 - |ratio|^2 of a rounded ratio loses digits as |ratio| -> 1
    (the model's trains have |ratio| = q and leak w^2 exactly).

    Past a cut x0 on the far side of the head and of the body's first
    image (``_cut``), the train repeats itself: T(x - step) = ratio T(x).
    So T is the finite packet on the near side of x0 plus the geometric
    train of its window W one step beyond x0, whose images are disjoint,
    and ||T||^2 = ||T near x0||^2 + ||T on W||^2 / leak: no cancelling
    terms, with an exact zero for equal trains however they are written.
    With an empty body every result is the head's own, bit for bit.
    """

    head: StepPacket
    body: StepPacket
    ratio: complex
    step: float
    leak: float

    def __post_init__(self):
        object.__setattr__(self, "ratio", complex(self.ratio))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "leak", float(self.leak))
        if not (math.isfinite(self.step) and self.step != 0.0):
            raise ValidationError(f"train step must be finite and nonzero, got {self.step!r}")
        if not 0.0 < self.leak <= 1.0:
            raise ValidationError(f"train leak must lie in (0, 1], got {self.leak!r}")

    def _like(self, head, body) -> "PacketTrain":
        return PacketTrain(head, body, self.ratio, self.step, self.leak)

    def _coerce(self, other) -> "PacketTrain":
        """``other`` as a train of this one's ratio, step and leak: a packet
        becomes a train with an empty body; a train must already be one."""
        if isinstance(other, StepPacket):
            return self._like(other, StepPacket.zero())
        if (other.ratio, other.step, other.leak) != (self.ratio, self.step, self.leak):
            raise ValidationError("trains combine only with equal ratio, step and leak")
        return other

    # ------------------------------------------------------------------
    # linear/geometric operations
    # ------------------------------------------------------------------

    def scale(self, c: complex) -> "PacketTrain":
        return self._like(self.head.scale(c), self.body.scale(c))

    def __neg__(self):
        return self.scale(-1.0)

    def __add__(self, other):
        other = self._coerce(other)
        body = self.body
        if not other.body.is_empty:
            body = sum_packets([body, other.body])
        return self._like(self.head + other.head, body)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def translate(self, s: float) -> "PacketTrain":
        """The train x -> T(x - s)."""
        return self._like(self.head.translate(s), self.body.translate(s))

    # ------------------------------------------------------------------
    # finite pieces
    # ------------------------------------------------------------------

    def materialize(self, n: int) -> StepPacket:
        """The head plus the first n terms of the train, in one sweep."""
        return self._terms(0, int(n))

    def _terms(self, first: int, stop: int) -> StepPacket:
        """The head plus the terms first <= n < stop, in one sweep."""
        if stop <= first or self.body.is_empty:
            return self.head
        k = np.arange(first, stop)
        terms = _translates(self.body, k * self.step, np.power(self.ratio, k))
        head = (self.head.lo, self.head.hi, self.head.waves)
        return StepPacket(*_sum_cells((head, terms)), _trusted=True)

    def restrict(self, lo=-np.inf, hi=np.inf) -> StepPacket:
        """The train on (lo, hi), an exact finite packet: the head plus every
        term that reaches the window.  A window unbounded on the side the
        train runs to holds infinitely many terms: ValidationError."""
        if hi <= lo:
            return StepPacket.zero()
        if self.body.is_empty:
            return self.head.restrict(lo, hi)
        return self._terms(*self._reach(lo, hi)).restrict(lo, hi)

    def _reach(self, lo, hi):
        """(first, stop): the terms first <= n < stop reach the window
        (lo, hi), lo < hi, of a train with a body."""
        b_lo, b_hi = self.body.support()
        # term n covers (b_lo - n step, b_hi - n step): it meets the window
        # for n strictly between these two bounds (both rounded outward)
        ends = ((b_lo - hi) / self.step, (b_hi - lo) / self.step)
        if not math.isfinite(max(ends)):
            raise ValidationError("a train restricted to a window open on its far side is infinite")
        first = 0 if min(ends) < 0 else math.floor(min(ends))
        return first, math.floor(max(ends)) + 2

    def _split(self, x0):
        """(T on the near side of x0, T on the window one step beyond it)."""
        if self.body.is_empty:
            return self.head, StepPacket.zero()
        near, window = _sides(x0, self.step)
        seen = self.restrict(min(window[0], near[0]), max(window[1], near[1]))
        return seen.restrict(*near), seen.restrict(*window)

    # ------------------------------------------------------------------
    # integrals
    # ------------------------------------------------------------------

    def norm2(self) -> float:
        """Squared L2 norm: ||T near x0||^2 + ||T on W||^2 / leak."""
        if self.body.is_empty:
            return self.head.norm2()
        near, window = self._split(_cut(self))
        return near.norm2() + window.norm2() / self.leak

    def inner(self, other) -> complex:
        """<T, other> (conjugate-first) against a packet or a train of the
        same ratio, step and leak: the near sides' pairing plus the windows'
        pairing over leak, for one cut x0 of both."""
        other = self._coerce(other)
        if self.body.is_empty and other.body.is_empty:
            return self.head.inner(other.head)
        x0 = _cut(self, other)
        (near_f, win_f), (near_g, win_g) = self._split(x0), other._split(x0)
        return near_f.inner(near_g) + win_f.inner(win_g) / self.leak

    def distance2(self, other) -> float:
        """Squared L2 distance to a packet or a train of the same ratio,
        step and leak: ``norm2`` of the difference, for one cut x0 of both,
        whose near side and window sum the heads and every term of both
        bodies that reaches them (``other``'s negated) in one sweep."""
        other = self._coerce(other)
        if self.body.is_empty and other.body.is_empty:
            return self.head.distance2(other.head)
        near, window = _sides(_cut(self, other), self.step)
        lo, hi = min(window[0], near[0]), max(window[1], near[1])
        cells = [(self.head.lo, self.head.hi, self.head.waves)]
        cells.append((other.head.lo, other.head.hi, {n: -v for n, v in other.head.waves.items()}))
        for train, sign in ((self, 1.0), (other, -1.0)):
            if not train.body.is_empty:
                k = np.arange(*train._reach(lo, hi))
                cells.append(_translates(train.body, k * self.step, sign * np.power(self.ratio, k)))
        seen = StepPacket(*_sum_cells(cells), _trusted=True).restrict(lo, hi)
        return seen.restrict(*near).norm2() + seen.restrict(*window).norm2() / self.leak

    def max_abs(self) -> float:
        """Upper bound for sup|T|: |ratio| < 1, so no image beats its window."""
        if self.body.is_empty:
            return self.head.max_abs()
        near, window = self._split(_cut(self))
        return max(near.max_abs(), window.max_abs())


def _sides(x0, step):
    """(near, window): the side of the cut x0 that holds the heads, and the
    window one step beyond x0."""
    if step > 0:
        return (x0, np.inf), (x0 - step, x0)
    return (-np.inf, x0), (x0, x0 - step)


def _cut(*trains) -> float:
    """A cut x0 for trains of one step: no head reaches past it, and no body
    past x0 - step, so beyond x0 each train is T(x - step) = ratio T(x)."""
    s = trains[0].step
    edges = []
    for t in trains:
        if not t.head.is_empty:
            edges.append(t.head.support()[0 if s > 0 else 1])
        if not t.body.is_empty:
            edges.append(t.body.support()[0 if s > 0 else 1] + s)
    return min(edges) if s > 0 else max(edges)
