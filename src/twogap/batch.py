"""Batches of step packets: one packet per time of a grid, swept at once.

A ``PacketBatch`` holds one packet per row as one flat list of cells, so a
whole time grid is shifted, scaled and clipped in one broadcast, and its sum
(``sum_batch``) runs the canonical sweep of ``packets`` on every row in one
pass (``_assemble_rows``).  Each row gets bit for bit what the one-packet
operation and sweep give that row alone: the same edge clusters, ``add.at``
and ``cumsum`` order, ``SNAP_REL`` peak and merges.  The frequency rule of
``packets`` says which frequencies a row carries: n exactly when the row
holds a nonzero value of n, in ascending order.  A batch of one row takes
the one-packet sweep of ``sum_packets``.
"""

from __future__ import annotations

import numpy as np

from .domain import e2pi
from .packets import (
    EDGE_TOL, SNAP_REL, StepPacket, _edge_clusters, _merge_adjacent, _nonzero, _sum_cells,
)

__all__ = ["PacketBatch", "sum_batch"]


def _assemble_rows(size, row, lo, hi, vals):
    """``_assemble`` on every row of a batch in one pass, bit for bit.

    Cell i, of row ``row[i]``, carries ``vals[n][i]`` for each frequency n
    (0.0 where its packet lacks n: adding a zero changes no sum).  Cells of
    one row come in the order ``_assemble`` would take them.  The edge sort
    runs on (row, edge) pairs, and row b's sweep runs along row b of a
    (size x edges) grid, so each row gets its own clusters, ``add.at`` and
    ``cumsum`` order, ``SNAP_REL`` peak and merges.  Returns (row, lo, hi,
    waves): the cells of every row in row order.
    """
    ok = hi - lo > EDGE_TOL * np.maximum(1.0, np.abs(lo))
    row, lo, hi = row[ok], lo[ok], hi[ok]
    vals = {n: v[ok] for n, v in vals.items()}
    k = len(lo)
    edges, erow, where = _edge_clusters(np.concatenate((lo, hi)), np.concatenate((row, row)))
    # edge j of row b sits at column j of row b of the grid
    count = np.bincount(erow, minlength=size)
    width = int(count.max(initial=0))
    slot = erow * width + np.arange(len(edges)) - (np.cumsum(count) - count)[erow]
    where = slot[where]
    opens = np.flatnonzero(erow[1:] == erow[:-1])  # edge j opens the interval to j + 1
    waves = {}
    for n, v in vals.items():
        delta = np.zeros(size * width, dtype=complex)
        np.add.at(delta, where[:k], v)
        np.add.at(delta, where[k:], -v)
        waves[n] = np.cumsum(delta.reshape(size, width), axis=1).ravel()[slot[opens]]
    lo, hi, row = edges[opens], edges[opens + 1], erow[opens]

    # Snap sweep-cancellation residue to exact zero, against each row's peak.
    mags = [np.abs(v) for v in waves.values()]
    peak = np.zeros(size)
    np.maximum.at(peak, row, np.max(mags, axis=0, initial=0.0))
    floor = SNAP_REL * peak[row]
    for v, mag in zip(waves.values(), mags):
        v[mag <= floor] = 0.0

    occupied = np.any([v != 0.0 for v in waves.values()], axis=0)
    lo, hi, row = lo[occupied], hi[occupied], row[occupied]
    waves = {n: v[occupied] for n, v in waves.items()}
    first, last = _merge_adjacent(lo, hi, waves, row)
    return row[first], lo[first], hi[last], {n: v[first] for n, v in waves.items()}


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
        lo = np.maximum(self.lo, self._at_cells(np.asarray(lo, dtype=float)))
        hi = np.minimum(self.hi, self._at_cells(np.asarray(hi, dtype=float)))
        keep = hi - lo > EDGE_TOL
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
    if size == 1:  # one row: the 1-D sweep of sum_packets
        lo, hi, waves = _sum_cells((p.lo, p.hi, _nonzero(p.waves)) for p in pieces)
        return PacketBatch(1, np.zeros(len(lo), dtype=int), lo, hi, waves)
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
    return PacketBatch(size, *_assemble_rows(size, row, lo, hi, vals))
