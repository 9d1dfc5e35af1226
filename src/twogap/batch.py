"""Batches of step packets: one packet per time of a grid, moved at once.

A ``PacketBatch`` holds one packet per row as one flat list of cells, so a
whole time grid is shifted, scaled and clipped in one broadcast by the cell
operations that ``StepPacket`` runs on one packet (``packets._translate``,
``_scale``, ``_restrict``).  Pieces that lie side by side in each row add
with no sweep (``merge_batch``); rows whose cells overlap are summed by the
one canonical sweep (``packets._sum_rows``).  A row carries frequency n
exactly when it holds a nonzero value of n (the frequency rule of
``packets``)."""

from __future__ import annotations

import numpy as np

from .packets import StepPacket, _merge_rows, _nonzero, _restrict, _scale, _translate

__all__ = ["PacketBatch", "merge_batch"]


class PacketBatch:
    """A batch of packets, one per row, stored as one flat list of cells.

    Cell i belongs to row ``row[i]``; the rows' cells are contiguous and in
    row order.  ``waves[n]`` holds frequency n on every cell (0.0 where a
    row lacks n), its keys ascending.  Each method runs the cell operation
    of the StepPacket method of its name on every row, with an argument per
    row (or one for all rows).
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
        """A per-row argument at every cell; one for all rows as a scalar."""
        x = np.asarray(x)
        return x[self.row] if x.ndim else x[()]

    def translate(self, s) -> "PacketBatch":
        s, cells = np.asarray(s, dtype=float), (self.lo, self.hi, self.waves)
        moved = _translate(*cells, s, self.row) if s.ndim else _translate(*cells, s[()])
        return PacketBatch(self.size, self.row, *moved)

    def scale(self, c) -> "PacketBatch":
        keep, lo, hi, waves = _scale(self.lo, self.hi, self.waves, self._at_cells(c))
        return PacketBatch(self.size, self.row[keep], lo, hi, waves)

    def restrict(self, lo=-np.inf, hi=np.inf) -> "PacketBatch":
        keep, lo, hi, waves = _restrict(self.lo, self.hi, self.waves, self._at_cells(lo), self._at_cells(hi))
        return PacketBatch(self.size, self.row[keep], lo, hi, waves)

    def packets(self) -> list:
        """The rows as StepPackets."""
        bounds = np.searchsorted(self.row, np.arange(self.size + 1)).tolist()
        out = []
        for b in range(self.size):
            cells = slice(bounds[b], bounds[b + 1])
            waves = _nonzero({n: v[cells] for n, v in self.waves.items()})
            out.append(StepPacket(self.lo[cells], self.hi[cells], waves, _trusted=True))
        return out


def merge_batch(pieces) -> PacketBatch:
    """The row-wise sum of pieces that lie side by side within a row, with
    no sweep (``packets._merge_rows``): an overlap wider than the edge rule
    raises OrderingViolation."""
    return PacketBatch(pieces[0].size, *_merge_rows([(p.row, p.lo, p.hi, p.waves) for p in pieces]))
