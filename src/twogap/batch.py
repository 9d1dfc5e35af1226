"""Batches of step packets: one packet per time of a grid, swept at once.

A ``PacketBatch`` holds one packet per row as one flat list of cells, so a
whole time grid is shifted, scaled and clipped in one broadcast, and its sum
(``sum_batch``) runs the one canonical sweep of ``packets`` (``_sweep``) on
every row in one pass, bit for bit what the one-packet operation and
``sum_packets`` give that row alone; pieces that never overlap in a row add
with no sweep (``merge_batch``).  The frequency rule of ``packets`` says
which frequencies a row carries: n exactly when the row holds a nonzero
value of n, in ascending order."""

from __future__ import annotations

import numpy as np

from .domain import e2pi
from .errors import OrderingViolation
from .packets import StepPacket, _gather, _join, _nonzero, _sweep, _wider

__all__ = ["PacketBatch", "merge_batch", "sum_batch"]


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
    def tile(cls, p, size: int) -> "PacketBatch":
        """``size`` copies of a packet p (one row each) or of a batch p."""
        m = p.size if isinstance(p, PacketBatch) else 1

        def repeat(x):
            return x if size == 1 or not len(x) else np.concatenate((x,) * size)

        row = np.arange(0, m * size, m).repeat(len(p.lo))
        return cls(
            m * size,
            row + repeat(p.row) if m > 1 else row,
            repeat(p.lo),
            repeat(p.hi),
            {n: repeat(v) for n, v in p.waves.items()},
        )

    def _at_cells(self, x):
        """A per-row argument at every cell; one for all rows (or for the
        one row) as it is."""
        return x[self.row] if np.ndim(x) and self.size > 1 else x

    def _cells(self, keep=slice(None)):
        """The cells ``keep`` as a part (row, lo, hi, waves) of ``packets._gather``."""
        return self.row[keep], self.lo[keep], self.hi[keep], {n: v[keep] for n, v in self.waves.items()}

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
            keep = np.broadcast_to(c != 0.0, (self.size,))[self.row]
            out = PacketBatch(self.size, *self._cells(keep))
        weight = out._at_cells(c) if c.ndim else complex(c)
        waves = {n: weight * v for n, v in out.waves.items()}
        return PacketBatch(self.size, out.row, out.lo, out.hi, waves)

    def restrict(self, lo=-np.inf, hi=np.inf) -> "PacketBatch":
        lo = np.maximum(self.lo, self._at_cells(np.asarray(lo, dtype=float) + 0.0))
        hi = np.minimum(self.hi, self._at_cells(np.asarray(hi, dtype=float) + 0.0))
        keep = _wider(hi - lo, np.maximum(hi, -lo))  # the edge rule, as in StepPacket.restrict
        waves = {n: v[keep] for n, v in self.waves.items()}
        return PacketBatch(self.size, self.row[keep], lo[keep], hi[keep], waves)

    @staticmethod
    def select(mask, a: "PacketBatch", b: "PacketBatch") -> "PacketBatch":
        """Row i of a where ``mask[i]``, else row i of b."""
        if mask.all():
            return a
        if not mask.any():
            return b
        row, lo, hi, vals = _gather([a._cells(mask[a.row]), b._cells(~mask[b.row])])
        order = np.argsort(row, kind="stable")
        waves = {n: v[order] for n, v in vals.items()}
        return PacketBatch(a.size, row[order], lo[order], hi[order], waves)

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
    if not any(p.waves for p in pieces):
        return PacketBatch.tile(StepPacket.zero(), size)
    parts = []
    for p in pieces:
        carries = np.zeros(size, dtype=bool)
        for v in p.waves.values():
            carries[p.row[v != 0.0]] = True
        parts.append(p._cells(carries[p.row]))
    return PacketBatch(size, *_sweep(size, *_gather(parts)))


def merge_batch(pieces) -> PacketBatch:
    """The row-wise sum of pieces that never overlap within a row
    (OrderingViolation), with no sweep: their cells in (row, lo) order, each
    with its edges and values, canonical by ``packets._join``; as in the
    sweep, no edge or value is -0.0."""
    row, lo, hi, vals = _gather([p._cells() for p in pieces])
    order = np.lexsort((lo, row))
    row, lo, hi = row[order], lo[order] + 0.0, hi[order] + 0.0
    if np.any((row[1:] == row[:-1]) & (lo[1:] < hi[:-1])):
        raise OrderingViolation("merged pieces overlap")
    waves = {n: v[order] + 0.0 for n, v in vals.items()}
    return PacketBatch(pieces[0].size, *_join(row, lo, hi, waves))
