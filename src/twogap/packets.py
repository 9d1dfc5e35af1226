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
Edges are identified left to right: an edge within EDGE_TOL * max(1, |x|)
of its left neighbour joins that neighbour's cluster, and the cluster's
leftmost edge stands for it, so a chain of close edges becomes one edge.

All integrals are closed-form; nothing in this module is approximate beyond
float arithmetic.
"""

from __future__ import annotations

import numpy as np

from .domain import _real_lambda, e2pi
from .errors import OrderingViolation, ValidationError

__all__ = [
    "StepPacket",
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


def _assemble(segments_by_freq):
    """Build canonical columnar storage from possibly overlapping segments.

    segments_by_freq maps an integer frequency to (lo, hi, val) arrays;
    overlapping segments of the same frequency add.  Returns (lo, hi, waves).

    Edge rule: an edge within EDGE_TOL * max(1, |x|) of its left neighbour
    joins that neighbour's cluster, and the cluster's leftmost edge stands
    for every edge in it.
    """
    pieces = []
    for n, (lo, hi, val) in segments_by_freq.items():
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        val = np.asarray(val, dtype=complex)
        ok = hi - lo > EDGE_TOL * np.maximum(1.0, np.abs(lo))
        if np.any(ok):
            pieces.append((int(n), lo[ok], hi[ok], val[ok]))
    if not pieces:
        return (np.empty(0), np.empty(0), {})

    ends = np.concatenate([np.concatenate((p[1], p[2])) for p in pieces])
    edges, where = np.unique(ends, return_inverse=True)
    starts = np.diff(edges) > EDGE_TOL * np.maximum(1.0, np.abs(edges[1:]))
    starts = np.concatenate(([True], starts))
    where = (np.cumsum(starts) - 1)[where]
    edges = edges[starts]
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
    waves = {n: v[occupied] for n, v in waves.items() if np.any(v[occupied] != 0.0)}
    return _merge_adjacent(lo, hi, waves)


def _merge_adjacent(lo, hi, waves):
    """Merge contiguous cells whose coefficient stacks agree."""
    m = len(lo)
    if m <= 1:
        return lo, hi, waves
    joinable = hi[:-1] >= lo[1:] - EDGE_TOL * np.maximum(1.0, np.abs(lo[1:]))
    for v in waves.values():
        scalemax = np.maximum(1.0, np.maximum(np.abs(v[:-1]), np.abs(v[1:])))
        joinable &= np.abs(v[:-1] - v[1:]) <= VALUE_TOL * scalemax
    # a group starts at every cell that does NOT join its predecessor
    first = np.flatnonzero(np.concatenate(([True], ~joinable)))
    last = np.append(first[1:], m) - 1
    return lo[first], hi[last], {n: v[first] for n, v in waves.items()}


class StepPacket:
    """Piecewise-oscillatory step function with compact support."""

    __slots__ = ("lo", "hi", "waves")

    def __init__(self, lo, hi, waves, *, _trusted=False):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        waves = {int(n): np.atleast_1d(np.asarray(v, dtype=complex)) for n, v in waves.items()}
        if not _trusted:
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
        return sorted(self.waves)

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
            {n: c * v for n, v in self.waves.items()},
            _trusted=True,
        )

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1.0)

    def __add__(self, other):
        return sum_packets([self, other])

    def __sub__(self, other):
        return sum_packets([self, other.scale(-1.0)])

    def translate(self, s: float) -> "StepPacket":
        """The packet x -> f(x - s); frequency-n coefficients gain e(-n s)."""
        s = float(s)
        if self.is_empty:
            return self
        waves = {}
        for n, v in self.waves.items():
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
            {-n: np.conj(v) for n, v in self.waves.items()},
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
        waves = {n: v[keep] for n, v in self.waves.items() if np.any(v[keep] != 0.0)}
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
    segs = {}
    for p in packets:
        if p.is_empty:
            continue
        for n, v in p.waves.items():
            bucket = segs.setdefault(n, ([], [], []))
            bucket[0].append(p.lo)
            bucket[1].append(p.hi)
            bucket[2].append(v)
    if not segs:
        return StepPacket.zero()
    segs = {
        n: tuple(np.concatenate(col) for col in cols) for n, cols in segs.items()
    }
    return StepPacket(*_assemble(segs), _trusted=True)
