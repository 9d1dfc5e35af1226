import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from twogap import batch, evolution, multipliers, packets
from twogap.domain import e2pi, make_boundary_matrix, make_domain
from twogap.packets import VALUE_TOL, StepPacket, _sum_cells, _translates, _wider

# random couplings stay inside [0.3, 0.95], the range the seeded draws below
# were made with (changing it reshuffles every draw); w -> 1 collapses q -> 0,
# making a draw uninformative.  Weak coupling has its own seeded draws.
W_RANGE = (0.3, 0.95)


@pytest.fixture(scope="session")
def ex59():
    """The worked half-coupling example: unit lattice, no phases."""
    dom = make_domain(2.0, 3.0)
    bm = make_boundary_matrix(w=np.sqrt(3.0) / 2.0, theta=0.0, phi=0.0, psi=0.0)
    return bm, dom


@pytest.fixture(scope="session")
def ex59_packet():
    return StepPacket.box(-0.5, 0.0, 1.0)


@pytest.fixture(scope="session")
def generic():
    """A coupling with all four parameters switched on."""
    dom = make_domain(2.25, 3.75)
    bm = make_boundary_matrix(w=0.7, theta=0.15, phi=0.3, psi=0.45)
    return bm, dom


def forbid_series(monkeypatch, what, *names):
    """Make every twogap binding of ``multipliers._geom_terms``, the one
    sizer of a window cut at a tolerance, and of ``make_multiplier``, the
    cached density window, raise, and of each of ``names`` (other
    ``multipliers`` functions) too, so a call that reaches one fails with
    ``what`` in its message."""
    for attr in ("_geom_terms", "make_multiplier", *names):
        original = getattr(multipliers, attr)

        def refuse(*args, _attr=attr, **kwargs):
            raise AssertionError(f"{what} reached multipliers.{_attr}")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "twogap" and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, refuse)


@dataclass(frozen=True, eq=False)
class CutSeries:
    """The whole series of one kind cut to |n| <= N, as read from the one
    generator, with the sup-norm bound ``tail`` = |scalar| * sum of the
    dropped |c_n|: a reference for the exact routes."""

    scalar: complex
    base_shift: float
    step: float
    first: int  # lattice index n of coeffs[0]
    coeffs: np.ndarray  # complex c_n for n = first, first + 1, ...
    tail: float

    @property
    def indices(self):
        return self.first + np.arange(len(self.coeffs))

    def value(self, lam):
        """scalar * e(base lam) * sum_n c_n e(n step lam) on a real grid."""
        lam = np.asarray(lam, dtype=float)
        waves = e2pi(self.indices[:, None] * self.step * np.atleast_1d(lam)[None, :])
        out = self.scalar * e2pi(self.base_shift * lam) * (self.coeffs[:, None] * waves).sum(axis=0)
        return out[0] if lam.ndim == 0 else out

    def terms(self):
        """(shifts, weights): base + n * step and scalar * c_n, rounded as
        the library's term arrays."""
        sc = complex(self.scalar)
        weights = multipliers._product(sc.real, sc.imag, self.coeffs.real, self.coeffs.imag)
        return self.base_shift + self.indices * self.step, weights


def cut_series(bm, dom, kind, eps=1e-12):
    """``kind`` on |n| <= N, N the smallest count whose geometric tail
    q^(N+1)/(1-q) is at most eps (eps/2 on each side for m_squared_inv);
    the tail is w (w^2 for the scattering quotients) times that, or twice
    it for m_squared_inv."""
    q, w = bm.q, bm.w
    n = multipliers._geom_terms(q, eps / 2.0 if kind == "m_squared_inv" else eps)
    geo_tail = q ** (n + 1) / (1.0 - q) if q > 0.0 else 0.0
    factor = {"m_squared_inv": 2.0, "a_inv_c": w * w, "c_inv_a": w * w}.get(kind, w)
    ((scalar, base),), _, ns, coeffs = multipliers._lattice_series(bm, dom, [(kind, lambda base: (-n, n))])
    return CutSeries(scalar, base, dom.ell, int(ns[0]), coeffs, factor * geo_tail)


def apply_series(m, f):
    """The spatial action scalar * sum_n c_n f(. + base + n step), summed in
    one sweep."""
    if f.is_empty or not len(m.coeffs):
        return StepPacket.zero()
    return StepPacket(*_sum_cells([_translates(f, *m.terms())]), _trusted=True)


def random_boundary(rng):
    return make_boundary_matrix(
        w=rng.uniform(*W_RANGE),
        theta=rng.uniform(0.0, 1.0),
        phi=rng.uniform(0.0, 1.0),
        psi=rng.uniform(0.0, 1.0),
    )


def random_geometry(rng):
    alpha = rng.uniform(1.2, 3.0)
    return make_domain(alpha, alpha + rng.uniform(0.3, 2.0))


def random_packet(rng, lo=-3.0, hi=-0.1, n_cells=3, freqs=(0,)):
    """A packet of random boxes inside (lo, hi)."""
    parts = []
    for _ in range(n_cells):
        a, b = np.sort(rng.uniform(lo, hi, size=2))
        if b - a < 1e-3:
            b = a + 1e-3
        val = complex(rng.normal(), rng.normal())
        parts.append(StepPacket.box(a, b, val, freq=int(rng.choice(freqs))))
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


def assert_same_packet(got, want):
    """got and want are the same packet bit for bit: edges, values and the
    order of the frequencies."""
    assert got.lo.tobytes() == want.lo.tobytes()
    assert got.hi.tobytes() == want.hi.tobytes()
    assert list(got.waves) == list(want.waves)
    for n, v in want.waves.items():
        assert got.waves[n].tobytes() == v.tobytes()


def count_sweeps(monkeypatch):
    """The list that every later canonical sweep appends its row count to."""
    swept, sweep = [], packets._sweep

    def counting(*args):
        swept.append(args[0])
        return sweep(*args)

    for module in (evolution, batch, packets):
        monkeypatch.setattr(module, "_sweep", counting, raising=False)
    return swept


def cells_in_order(pieces):
    """(lo, hi, waves) of every cell of the pieces, sorted by lo, each edge
    and value as it is (but no -0.0): a value column per frequency of any
    piece, 0.0 where a piece lacks it."""
    freqs = sorted({n for p in pieces for n in p.waves})
    lo = np.concatenate([p.lo for p in pieces] + [np.empty(0)]) + 0.0
    hi = np.concatenate([p.hi for p in pieces] + [np.empty(0)]) + 0.0
    order = np.argsort(lo, kind="stable")
    waves = {
        n: np.concatenate([p.waves.get(n, np.zeros(p.n_cells, dtype=complex)) for p in pieces])[order] + 0.0
        for n in freqs
    }
    return lo[order], hi[order], waves


def side_by_side(pieces):
    """Reference for ``batch.merge_batch`` of one row: the sum of packets
    whose cells never overlap beyond the edge rule, cell by cell.  A gap or
    overlap within the edge rule closes onto its leftmost edge; then, pass
    after pass until no pass joins, a cell that touches the cell before it
    and whose stack agrees with that cell's (VALUE_TOL) extends its run,
    which keeps its first cell's values and stands as one cell in the next
    pass."""
    lo, hi, waves = cells_in_order(pieces)
    stacks = np.array(list(waves.values())).reshape(len(waves), len(lo)).T
    cells = []  # [lo, hi, stack]
    for a, b, v in zip(lo, hi, stacks):
        if cells and not _wider(a - cells[-1][1], a):
            a = cells[-1][1] = min(a, cells[-1][1])
        cells.append([a, b, v])
    while True:
        runs = []  # [lo, hi, stack of the run's first cell, stack of its last]
        for a, b, v in cells:
            if runs and a == runs[-1][1]:
                last = runs[-1][3]
                if np.all(np.abs(last - v) <= VALUE_TOL * np.maximum(1.0, np.maximum(np.abs(last), np.abs(v)))):
                    runs[-1][1], runs[-1][3] = b, v
                    continue
            runs.append([a, b, v, v])
        if len(runs) == len(cells):
            break
        cells = [[a, b, v] for a, b, v, _ in runs]
    stacks = np.array([c[2] for c in cells]).reshape(len(cells), len(waves)).T
    return StepPacket([c[0] for c in cells], [c[1] for c in cells], dict(zip(waves, stacks)))


def wrap_at(bm, dom, f0, t):
    """Reference for ``evolution._wrap_middle``: the damped middle wrap at
    one time, its two pieces side by side."""
    ell = dom.ell
    r = t % ell
    m = round((t - r) / ell)
    g = f0.translate(r).scale(bm.q**m * complex(e2pi(-bm.psi * m)))
    spill = g.restrict(dom.alpha, dom.alpha + ell).translate(-ell).scale(bm.b_entry)
    return side_by_side([g.restrict(1.0, dom.alpha), spill])


def splice_at(left, right, t, width, phase):
    """Reference for ``evolution._splice``: the halves shifted by one t on
    the line with [0, width] removed, the piece that crosses the cut jumped
    over it, side by side."""
    if t >= 0:
        moved = left.translate(t)
        stay, cross, still = moved.restrict(hi=0.0), moved.restrict(lo=0.0), right
    else:
        moved = right.translate(t)
        stay, cross, still = moved.restrict(lo=width), moved.restrict(hi=width), left
        width, phase = -width, np.conj(phase)
    return side_by_side([stay, cross.translate(width).scale(phase), still.translate(t)])


def plain_fold_nodes(bm, tol=1e-13, span=0.0):
    """Reference for ``quadrature.fold_nodes``: the plain N-point midpoint rule
    on (-1/2, 1/2], no node on xi = 0, N = ceil(ln(tol)/ln(q) + span) + 1
    (ceil(span) + 2 at q = 0), error ~q^N; O(1/w^2) nodes."""
    q = bm.q
    n = math.ceil(math.log(tol) / math.log(q) + span) + 1 if q > 0.0 else math.ceil(span) + 2
    xi = (np.arange(n) + 0.5) / n - 0.5 + (0.5 / n if n % 2 else 0.0)
    return xi, np.full(n, 1.0 / n)
