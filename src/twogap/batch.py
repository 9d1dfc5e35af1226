"""Batches of step packets: one packet per time of a grid, swept at once.

A ``PacketBatch`` holds one packet per row as one flat list of cells, so a
whole time grid is shifted, scaled and clipped in one broadcast, and its sum
(``sum_batch``) runs the one canonical sweep of ``packets`` (``_sweep``) on
every row in one pass.  Each row gets bit for bit what the one-packet
operation and ``sum_packets`` give that row alone.  The frequency rule of
``packets`` says which frequencies a row carries: n exactly when the row
holds a nonzero value of n, in ascending order."""

from __future__ import annotations

import numpy as np

from .domain import e2pi
from .packets import StepPacket, _nonzero, _sweep, _wider

__all__ = ["PacketBatch", "sum_batch"]


class PacketBatch:
    """A batch of packets, one per row, stored as one flat list of cells.

    Cell i belongs to row ``row[i]``; the rows' cells are contiguous and in
    row order.  ``waves[n]`` holds frequency n on every cell, its keys in
    ascending order; row b's packet carries n exactly when it holds a
    nonzero value of n (0.0 elsewhere).  Each method does to every row what
    the StepPacket method of the same name does to its packet, bit for bit,
    with an argument per row (or one for all rows).
    """

    __slots__ = ("size", "row", "lo", "hi", "waves")

    def __init__(self, size, row, lo, hi, waves):
        self.size, self.row, self.lo, self.hi, self.waves = size, row, lo, hi, waves

    @classmethod
    def tile(cls, p: StepPacket, size: int) -> "PacketBatch":
        """``size`` rows, each the packet p."""

        def repeat(x):
            return x if size == 1 else np.concatenate((x,) * size)

        return cls(
            size,
            np.arange(size).repeat(p.n_cells),
            repeat(p.lo),
            repeat(p.hi),
            {n: repeat(v) for n, v in p.waves.items()},
        )

    def _at_cells(self, x):
        """A per-row argument at every cell; one for all rows (or for the
        one row) as it is."""
        return x[self.row] if np.ndim(x) and self.size > 1 else x

    def _values(self, n):
        """Frequency n on every cell, 0.0 where no row carries it."""
        return self.waves[n] if n in self.waves else np.zeros(len(self.row), dtype=complex)

    def translate(self, s) -> "PacketBatch":
        s = np.asarray(s, dtype=float)
        shift = self._at_cells(s)
        waves = {}
        for n, v in self.waves.items():
            if n:
                phase = [complex(e2pi(-n * float(x))) for x in s.ravel()]
                v = v * (self._at_cells(np.array(phase)) if s.ndim else phase[0])
            waves[n] = v
        return PacketBatch(self.size, self.row, self.lo + shift, self.hi + shift, waves)

    def scale(self, c) -> "PacketBatch":
        c = np.asarray(c, dtype=complex)
        out = self
        if not np.all(c != 0.0):  # a row scaled by 0 is the zero packet
            cells = np.broadcast_to(c != 0.0, (self.size,))[self.row]
            waves = {n: v[cells] for n, v in self.waves.items()}
            out = PacketBatch(self.size, self.row[cells], self.lo[cells], self.hi[cells], waves)
        weight = out._at_cells(c) if c.ndim else complex(c)
        waves = {n: weight * v for n, v in out.waves.items()}
        return PacketBatch(self.size, out.row, out.lo, out.hi, waves)

    def restrict(self, lo=-np.inf, hi=np.inf) -> "PacketBatch":
        lo = np.maximum(self.lo, self._at_cells(np.asarray(lo, dtype=float) + 0.0))
        hi = np.minimum(self.hi, self._at_cells(np.asarray(hi, dtype=float) + 0.0))
        keep = _wider(hi - lo, np.maximum(hi, -lo))  # the edge rule, as in StepPacket.restrict
        waves = {n: v[keep] for n, v in self.waves.items()}
        return PacketBatch(self.size, self.row[keep], lo[keep], hi[keep], waves)

    def occupied(self) -> np.ndarray:
        """Per row: whether its packet has a cell."""
        return np.bincount(self.row, minlength=self.size) > 0

    @staticmethod
    def select(mask, a: "PacketBatch", b: "PacketBatch") -> "PacketBatch":
        """Row i of a where ``mask[i]``, else row i of b."""
        if mask.all():
            return a
        if not mask.any():
            return b
        cells = (mask[a.row], ~mask[b.row])
        order = np.argsort(np.concatenate((a.row[cells[0]], b.row[cells[1]])), kind="stable")

        def column(x, y):
            return np.concatenate((x[cells[0]], y[cells[1]]))[order]

        return PacketBatch(
            a.size,
            column(a.row, b.row),
            column(a.lo, b.lo),
            column(a.hi, b.hi),
            {n: column(a._values(n), b._values(n)) for n in sorted({*a.waves, *b.waves})},
        )

    def packets(self) -> list:
        """The rows as StepPackets."""
        bounds = np.searchsorted(self.row, np.arange(self.size + 1)).tolist()
        out = []
        for b in range(self.size):
            cells = slice(bounds[b], bounds[b + 1])
            waves = _nonzero({n: v[cells] for n, v in self.waves.items()})
            out.append(StepPacket(self.lo[cells], self.hi[cells], waves, _trusted=True))
        return out


def sum_batch(pieces) -> PacketBatch:
    """``sum_packets`` of the pieces, row by row, in one batched sweep.

    A row of a piece that holds no nonzero value adds nothing (not even
    edges), as in ``sum_packets``.
    """
    size = pieces[0].size
    freqs = sorted({n for p in pieces for n in p.waves})
    if not freqs:
        return PacketBatch.tile(StepPacket.zero(), size)
    live = []
    for p in pieces:
        carries = np.zeros(size, dtype=bool)
        for v in p.waves.values():
            carries[p.row[v != 0.0]] = True
        live.append(carries[p.row])

    def column(get):
        return np.concatenate([get(p)[keep] for p, keep in zip(pieces, live)])

    row, lo, hi = column(lambda p: p.row), column(lambda p: p.lo), column(lambda p: p.hi)
    vals = {n: column(lambda p: p._values(n)) for n in freqs}
    return PacketBatch(size, *_sweep(size, row, lo, hi, vals))
