"""Compactly supported piecewise-oscillatory step functions ("packets").

A StepPacket is a finite union of disjoint cells [lo_i, hi_i) carrying a
small set of waves: on cell i the function equals

    sum_n  values[n][i] * e(n x),          e(x) = exp(i 2 pi x),

with integer frequencies n.  Plain step functions are the n = 0 case.  The
oscillatory cells keep the class closed under every operation used here:
translation multiplies the frequency-n coefficient by e(-n t), restriction
clips cells, and sums of lattice translates stay in the class.

Storage is columnar (lo/hi arrays plus one complex coefficient array per
frequency), and the canonical form is maintained by every constructor:
cells sorted, disjoint, zero-width and zero-value cells dropped, adjacent
cells with equal coefficient stacks merged (equality tolerance 1e-14).
Every constructor and operation keeps one frequency rule: the keys of
``waves`` are in ascending order, and each key has at least one nonzero
value (a frequency whose values all vanish, say by underflow, is dropped).
Edges are identified left to right: an edge within EDGE_TOL * max(1, |x|)
of its left neighbour joins that neighbour's cluster, and the cluster's
leftmost edge stands for it, so a chain of close edges becomes one edge.

A PacketTrain is a packet followed by a geometric train of its lattice
translates, head + sum_{n >= 0} ratio^n body(. + n step): the t = inf
pictures of the model.  Its norms, pairings and restrictions are exact
finite sums over the terms that reach a bounded window.

All integrals are closed-form; nothing in this module is approximate beyond
float arithmetic.
"""

from __future__ import annotations

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
# cancellation, not data; they are snapped to zero during assembly.
SNAP_REL = 1e-15


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
    """Segments of sum_k weights[k] p(. + shifts[k]) per frequency, as
    (lo, hi, val) arrays in shift order, for ``_assemble``: p(x + s) moves a
    cell by -s, and a frequency-n value v becomes v e(n s)."""
    segs = {}
    for freq, vals in p.waves.items():
        wf = weights * e2pi(freq * shifts) if freq else weights
        segs[freq] = (
            (p.lo[None, :] - shifts[:, None]).ravel(),
            (p.hi[None, :] - shifts[:, None]).ravel(),
            (vals[None, :] * wf[:, None]).ravel(),
        )
    return segs


def _assemble(segments_by_freq):
    """Build canonical columnar storage from possibly overlapping segments.

    segments_by_freq maps an integer frequency to (lo, hi, val) arrays;
    overlapping segments of the same frequency add.  Returns (lo, hi, waves)
    under the frequency rule: ascending keys, each with a nonzero value.

    Edge rule: an edge within EDGE_TOL * max(1, |x|) of its left neighbour
    joins that neighbour's cluster, and the cluster's leftmost edge stands
    for every edge in it.
    """
    pieces = []
    for n, (lo, hi, val) in sorted(segments_by_freq.items()):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        val = np.asarray(val, dtype=complex)
        ok = hi - lo > EDGE_TOL * np.maximum(1.0, np.abs(lo))
        if np.any(ok):
            pieces.append((int(n), lo[ok], hi[ok], val[ok]))
    if not pieces:
        return (np.empty(0), np.empty(0), {})

    edges, _, where = _edge_clusters(np.concatenate([np.concatenate(p[1:3]) for p in pieces]))
    n_iv = len(edges) - 1
    waves = {}
    pos = 0
    for n, lo, hi, val in pieces:
        k = len(lo)
        delta = np.zeros(n_iv + 1, dtype=complex)
        np.add.at(delta, where[pos : pos + k], val)
        np.add.at(delta, where[pos + k : pos + 2 * k], -val)
        waves[n] = np.cumsum(delta)[:n_iv]
        pos += 2 * k

    # Snap sweep-cancellation residue to exact zero.
    peak = max(np.max(np.abs(v), initial=0.0) for v in waves.values())
    if peak > 0.0:
        for n, v in waves.items():
            v[np.abs(v) <= SNAP_REL * peak] = 0.0

    occupied = np.zeros(n_iv, dtype=bool)
    for v in waves.values():
        occupied |= v != 0.0
    lo = edges[:-1][occupied]
    hi = edges[1:][occupied]
    waves = {n: v[occupied] for n, v in waves.items()}
    first, last = _merge_adjacent(lo, hi, waves)
    # a merge within VALUE_TOL can zero a frequency out: drop after it
    return lo[first], hi[last], _nonzero({n: v[first] for n, v in waves.items()})


def _nonzero(waves):
    """The frequencies of ``waves`` that keep a nonzero value."""
    return {n: v for n, v in waves.items() if v.any()}


def _edge_clusters(ends, end_row=None):
    """(edges, their rows, the edge of each end) under the edge rule, per
    row of a batch when ``end_row`` gives each end's row.

    The ends are sorted (by row, then by value) and the distinct values
    kept; an edge within EDGE_TOL * max(1, |x|) of its left neighbour in the
    same row joins that neighbour's cluster, and the cluster's leftmost
    edge stands for every edge in it.
    """
    ends = ends + 0.0  # every zero end becomes +0.0: no order of equal zeros shows
    if end_row is None:
        order = np.argsort(ends)
        x = ends[order]
        new = x[1:] != x[:-1]
    else:
        order = np.lexsort((ends, end_row))
        x, r = ends[order], end_row[order]
        new = (x[1:] != x[:-1]) | (r[1:] != r[:-1])
    new = np.concatenate(([True], new))[: len(x)]
    edges = x[new]
    starts = np.diff(edges) > EDGE_TOL * np.maximum(1.0, np.abs(edges[1:]))
    if end_row is not None:
        erow = r[new]
        starts |= erow[1:] != erow[:-1]
    starts = np.concatenate(([True], starts))[: len(edges)]
    where = np.empty(len(x), dtype=int)
    where[order] = (np.cumsum(starts) - 1)[np.cumsum(new) - 1]
    return edges[starts], None if end_row is None else erow[starts], where


def _merge_adjacent(lo, hi, waves, row=None):
    """(first, last) cell of each run of contiguous cells whose coefficient
    stacks agree; a run never spans two rows of a batch (``row``)."""
    m = len(lo)
    if m <= 1:
        return np.arange(m), np.arange(m)
    joinable = hi[:-1] >= lo[1:] - EDGE_TOL * np.maximum(1.0, np.abs(lo[1:]))
    if row is not None:
        joinable &= row[1:] == row[:-1]
    for v in waves.values():
        scalemax = np.maximum(1.0, np.maximum(np.abs(v[:-1]), np.abs(v[1:])))
        joinable &= np.abs(v[:-1] - v[1:]) <= VALUE_TOL * scalemax
    # a run starts at every cell that does NOT join its predecessor
    first = np.flatnonzero(np.concatenate(([True], ~joinable)))
    last = np.append(first[1:], m) - 1
    return first, last


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
        """Single cell: value * e(freq x) on [lo, hi)."""
        if not (hi > lo):
            raise OrderingViolation(f"box needs hi > lo, got [{lo}, {hi})")
        if value == 0:
            return cls.zero()
        return cls(
            np.array([float(lo)]),
            np.array([float(hi)]),
            {int(freq): np.array([complex(value)])},
            _trusted=True,
        )

    @classmethod
    def from_breakpoints(cls, breaks, values) -> "StepPacket":
        """Contiguous plain-step cells: len(breaks) = len(values) + 1."""
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=complex)
        if breaks.ndim != 1 or len(breaks) != len(values) + 1:
            raise ValidationError("need one more breakpoint than cell values")
        if not np.all(np.diff(breaks) > 0):
            raise OrderingViolation("breakpoints must be strictly increasing")
        return cls(*_assemble({0: (breaks[:-1], breaks[1:], values)}), _trusted=True)

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
        return np.unique(np.concatenate((self.lo, self.hi)))

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
        c = complex(c)
        if c == 0 or self.is_empty:
            return StepPacket.zero()
        return StepPacket(
            self.lo.copy(), self.hi.copy(),
            _nonzero({n: c * v for n, v in self.waves.items()}),  # values can underflow
            _trusted=True,
        )

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
        s = float(s)
        if self.is_empty:
            return self
        waves = {}
        for n, v in self.waves.items():
            # a unit phase keeps a nonzero value nonzero, even a subnormal one
            waves[n] = v * complex(e2pi(-n * s)) if n else v.copy()
        return StepPacket(self.lo + s, self.hi + s, waves, _trusted=True)

    def modulate(self, n: int) -> "StepPacket":
        """Multiply by the character e(n x) (shifts every frequency by n)."""
        n = int(n)
        if n == 0 or self.is_empty:
            return self
        return StepPacket(
            self.lo.copy(), self.hi.copy(),
            {m + n: v.copy() for m, v in self.waves.items()},
            _trusted=True,
        )

    def conjugate(self) -> "StepPacket":
        return StepPacket(
            self.lo.copy(), self.hi.copy(),
            {-n: np.conj(v) for n, v in reversed(self.waves.items())},
            _trusted=True,
        )

    def restrict(self, lo=-np.inf, hi=np.inf) -> "StepPacket":
        """Restriction to the interval (lo, hi); endpoints carry no mass."""
        if hi <= lo:
            return StepPacket.zero()
        if self.is_empty:
            return self
        new_lo = np.maximum(self.lo, lo)
        new_hi = np.minimum(self.hi, hi)
        keep = new_hi - new_lo > EDGE_TOL
        if not np.any(keep):
            return StepPacket.zero()
        waves = _nonzero({n: v[keep] for n, v in self.waves.items()})
        return StepPacket(new_lo[keep], new_hi[keep], waves, _trusted=True)

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
        edges = np.unique(np.concatenate((f.lo, f.hi, g.lo, g.hi)))
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
        """Squared L2 distance to another packet."""
        return (self - other).norm2()


def sum_packets(packets) -> StepPacket:
    """Sum many packets in one edge sweep (cheaper than repeated add)."""
    cells = _sum_cells((p.lo, p.hi, p.waves) for p in packets if not p.is_empty)
    return StepPacket(*cells, _trusted=True)


def _sum_cells(parts):
    """(lo, hi, waves) of the sum of the packets given as (lo, hi, waves)
    in one sweep, under the frequency rule of ``_assemble``."""
    segs = {}
    for lo, hi, waves in parts:
        for n, v in waves.items():
            for col, x in zip(segs.setdefault(n, ([], [], [])), (lo, hi, v)):
                col.append(x)
    return _assemble({n: [np.concatenate(col) for col in cols] for n, cols in segs.items()})


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
        segs = _translates(self.body, k * self.step, np.power(self.ratio, k))
        for freq, vals in self.head.waves.items():
            cols = (self.head.lo, self.head.hi, vals)
            if freq in segs:
                cols = tuple(np.concatenate(pair) for pair in zip(cols, segs[freq]))
            segs[freq] = cols
        return StepPacket(*_assemble(segs), _trusted=True)

    def restrict(self, lo=-np.inf, hi=np.inf) -> StepPacket:
        """The train on (lo, hi), an exact finite packet: the head plus every
        term that reaches the window.  A window unbounded on the side the
        train runs to holds infinitely many terms: ValidationError."""
        if hi <= lo:
            return StepPacket.zero()
        if self.body.is_empty:
            return self.head.restrict(lo, hi)
        b_lo, b_hi = self.body.support()
        # term n covers (b_lo - n step, b_hi - n step): it meets the window
        # for n strictly between these two bounds (both rounded outward)
        ends = ((b_lo - hi) / self.step, (b_hi - lo) / self.step)
        if not math.isfinite(max(ends)):
            raise ValidationError("a train restricted to a window open on its far side is infinite")
        first = 0 if min(ends) < 0 else math.floor(min(ends))
        return self._terms(first, math.floor(max(ends)) + 2).restrict(lo, hi)

    def _split(self, x0):
        """(T on the near side of x0, T on the window one step beyond it)."""
        if self.body.is_empty:
            return self.head, StepPacket.zero()
        s = self.step
        near = (x0, np.inf) if s > 0 else (-np.inf, x0)
        window = (x0 - s, x0) if s > 0 else (x0, x0 - s)
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
        step and leak."""
        return (self - other).norm2()

    def max_abs(self) -> float:
        """Upper bound for sup|T|: |ratio| < 1, so no image beats its window."""
        if self.body.is_empty:
            return self.head.max_abs()
        near, window = self._split(_cut(self))
        return max(near.max_abs(), window.max_abs())


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
