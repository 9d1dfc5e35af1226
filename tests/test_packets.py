import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twogap.batch import PacketBatch, merge_batch
from twogap.domain import e2pi
from twogap.errors import OrderingViolation, ValidationError
from twogap.packets import (
    EDGE_TOL,
    PacketTrain,
    StepPacket,
    _gather,
    _sum_cells,
    _sum_rows,
    _sweep,
    osc_integral,
    sum_packets,
)

from conftest import assert_same_packet, count_sweeps

finite = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
small_complex = st.builds(
    complex, st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
)
freqs = st.integers(-4, 4)


@st.composite
def boxes(draw):
    a = draw(finite)
    width = draw(st.floats(0.01, 5.0))
    val = draw(small_complex)
    n = draw(freqs)
    return StepPacket.box(a, a + width, val, freq=n)


@st.composite
def packets(draw):
    parts = draw(st.lists(boxes(), min_size=1, max_size=4))
    return sum_packets(parts)


def test_box_constructor_and_sampling():
    f = StepPacket.box(0.0, 2.0, 1.5 - 0.5j, freq=3)
    xs = np.array([0.5, 1.9])
    assert np.allclose(f.sample(xs), (1.5 - 0.5j) * e2pi(3 * xs))
    assert f.sample(np.array([-0.1]))[0] == 0.0
    assert f.sample(np.array([2.1]))[0] == 0.0


@st.composite
def box_ends(draw):
    """(lo, hi): a random cell, or one whose width sits within a few ulps
    of the edge rule's bound EDGE_TOL * max(1, |lo|, |hi|)."""
    lo = draw(st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 0.0, -1.0, 1.0]))
    if draw(st.booleans()):
        return lo, lo + draw(st.floats(1e-16, 10.0))
    hi = lo + EDGE_TOL * max(1.0, abs(lo))
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        hi = np.nextafter(hi, np.inf if steps > 0 else -np.inf)
    return lo, float(hi)


@given(box_ends(), small_complex | st.sampled_from([1.0, -0j, complex(1.0, -0.0)]), freqs)
@settings(max_examples=300, deadline=None)
def test_box_is_its_own_sweep(ends, value, n):
    lo, hi = ends
    assume(hi > lo)
    f = StepPacket.box(lo, hi, value, n)
    assert_same_packet(f, sum_packets([f]))
    cell = (np.array([lo]), np.array([hi]), {n: np.array([value], dtype=complex)})
    assert_same_packet(f, StepPacket(*_sum_cells([cell]), _trusted=True))


@st.composite
def far_cuts(draw):
    """(box, window): a box whose edges may lie far from the origin, and a
    window; one window end lands anywhere near the box or within a few ulps
    of the edge rule's bound EDGE_TOL * max(1, |x|) from a box edge."""
    lo = draw(st.floats(-1e6, 1e6))
    hi = lo + draw(st.floats(1e-3, 10.0))
    f = StepPacket.box(lo, hi, draw(small_complex), draw(freqs))
    edge = draw(st.sampled_from([lo, hi]))
    if draw(st.booleans()):
        cut = draw(st.floats(lo - 1.0, hi + 1.0))
    else:
        sign = 1.0 if edge == lo else -1.0
        cut = edge + sign * EDGE_TOL * max(1.0, abs(edge))
        steps = draw(st.integers(-4, 4))
        for _ in range(abs(steps)):
            cut = float(np.nextafter(cut, np.inf if steps > 0 else -np.inf))
    other = draw(st.floats(lo - 1.0, hi + 1.0) | st.sampled_from([-np.inf, np.inf]))
    return f, (min(cut, other), max(cut, other))


@given(far_cuts())
@settings(max_examples=300, deadline=None)
def test_restrict_is_its_own_sweep(cut):
    # restrict drops a cut cell by the edge rule, as the sweep does
    f, (a, b) = cut
    g = f.restrict(a, b)
    assert_same_packet(g, sum_packets([g]))
    for row in PacketBatch.tile(f, 2).restrict(a, b).packets():
        assert_same_packet(row, g)


def test_restrict_drops_a_cell_narrower_than_the_edge_rule():
    assert StepPacket.box(99.0, 101.0).restrict(99.0, 99.0 + 5e-14).is_empty


def test_norm2_box_closed_form():
    f = StepPacket.box(-1.0, 3.0, 2.0 + 1.0j, freq=-2)
    # |value|^2 * length; the oscillation is unimodular
    assert abs(f.norm2() - 5.0 * 4.0) < 1e-12


def test_zero_and_empty():
    z = StepPacket.zero()
    assert z.is_empty
    assert z.norm2() == 0.0
    assert z.support() is None


@given(packets())
@settings(max_examples=60, deadline=None)
def test_translate_preserves_norm(f):
    assert abs(f.translate(1.37).norm2() - f.norm2()) < 1e-9 * max(1.0, f.norm2())


@given(packets(), finite)
@settings(max_examples=60, deadline=None)
def test_translate_roundtrip(f, s):
    back = f.translate(s).translate(-s)
    assert back.distance2(f) < 1e-18 * max(1.0, f.norm2())


@given(packets())
@settings(max_examples=40, deadline=None)
def test_conjugate_involution(f):
    assert f.conjugate().conjugate().distance2(f) < 1e-20


@given(packets(), packets())
@settings(max_examples=40, deadline=None)
def test_inner_conjugate_symmetry(f, g):
    assert abs(f.inner(g) - np.conj(g.inner(f))) < 1e-9


@given(packets(), packets())
@settings(max_examples=40, deadline=None)
def test_norm_of_sum_parallelogram(f, g):
    # ||f+g||^2 + ||f-g||^2 = 2||f||^2 + 2||g||^2
    lhs = (f + g).norm2() + (f - g).norm2()
    rhs = 2.0 * (f.norm2() + g.norm2())
    assert abs(lhs - rhs) < 1e-8 * max(1.0, rhs)


@given(packets())
@settings(max_examples=40, deadline=None)
def test_restrict_partitions_norm(f):
    sup = f.support()
    if sup is None:  # box values can cancel exactly
        return
    mid = 0.5 * (sup[0] + sup[1])
    left = f.restrict(-np.inf, mid)
    right = f.restrict(mid, np.inf)
    assert abs(left.norm2() + right.norm2() - f.norm2()) < 1e-9 * max(1.0, f.norm2())


def test_restrict_is_idempotent():
    f = StepPacket.box(0.0, 4.0, 1.0, freq=1) + StepPacket.box(1.0, 2.0, -2.0)
    g = f.restrict(0.5, 3.0)
    assert g.distance2(g.restrict(0.5, 3.0)) == 0.0
    assert g.support() == (0.5, 3.0)


def test_transform_matches_quadrature():
    f = StepPacket.box(0.25, 1.5, 1.0 - 2.0j, freq=1)
    lam = 0.777
    edges = np.linspace(0.25, 1.5, 20001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = edges[1] - edges[0]
    direct = np.sum(f.sample(mids) * e2pi(-lam * mids)) * h
    assert abs(f.transform(np.array([lam]))[0] - direct) < 1e-6


def test_osc_integral_zero_freq():
    assert abs(osc_integral(1.0, 3.0, 0.0) - 2.0) < 1e-15
    # int_1^3 e(2x) dx = (e(6) - e(2)) / (2 pi i 2) = 0 for integer freq
    assert abs(osc_integral(1.0, 3.0, 2.0)) < 1e-12


def test_translate_moves_oscillation():
    f = StepPacket.box(0.0, 1.0, 1.0, freq=2)
    g = f.translate(0.3)
    x = np.array([0.8])
    assert np.allclose(g.sample(x), e2pi(2 * (x - 0.3)))


def test_merge_adjacent_cells():
    f = StepPacket.box(0.0, 1.0, 1.0) + StepPacket.box(1.0, 2.0, 1.0)
    assert f.n_cells == 1
    g = StepPacket.box(0.0, 1.0, 1.0) + StepPacket.box(1.0, 2.0, 2.0)
    assert g.n_cells == 2
    # the untrusted constructor keeps touching cells whose stacks agree, as
    # given; any sum merges them
    h = StepPacket([1.2, 1.5], [1.5, 1.8], {0: [1, 1]})
    assert h.n_cells == 2
    assert (h + StepPacket.zero()).n_cells == 1


def test_chained_edges_leave_no_hole():
    # each edge lies within EDGE_TOL of the next, the chain spans more than it
    f = sum_packets([
        StepPacket.box(0.0, 1.0),
        StepPacket.box(1.0 + 8e-15, 2.0),
        StepPacket.box(1.0 + 1.6e-14, 3.0),
    ])
    assert f.lo.tolist() == [0.0, 1.0, 2.0]
    assert f.hi.tolist() == [1.0, 2.0, 3.0]
    assert f.waves[0].tolist() == [1.0, 2.0, 1.0]


def test_sum_packets_matches_loop():
    rng = np.random.default_rng(3)
    parts = [
        StepPacket.box(a, a + w, complex(v, -v), freq=n)
        for a, w, v, n in zip(
            rng.uniform(-5, 5, 6), rng.uniform(0.1, 2, 6), rng.normal(size=6), [0, 1, -2, 0, 3, 0]
        )
    ]
    total = sum_packets(parts)
    looped = parts[0]
    for p in parts[1:]:
        looped = looped + p
    assert total.distance2(looped) < 1e-20


@st.composite
def sweep_rows(draw):
    """Segments (lo, hi, freq, value) of one row of a batched sweep: chains
    that touch, edges within EDGE_TOL of each other, widths under
    EDGE_TOL max(1, |lo|), overlaps, several frequencies, all-zero values,
    and magnitudes 1e16 apart, so one peak snaps another to zero."""
    cursor = draw(st.sampled_from([0.0, 1.0, -3.5, 1e3])) + draw(st.floats(-5.0, 5.0))
    segs = []
    for _ in range(draw(st.integers(0, 6))):
        place = draw(st.sampled_from(["touch", "near", "free"]))
        if place == "touch":
            lo = cursor
        elif place == "near":
            lo = cursor + draw(st.floats(-2.0, 2.0)) * EDGE_TOL * max(1.0, abs(cursor))
        else:
            lo = cursor + draw(st.floats(-2.0, 2.0))
        if draw(st.booleans()):
            width = draw(st.floats(0.0, 1.5)) * EDGE_TOL * max(1.0, abs(lo))
        else:
            width = draw(st.floats(1e-3, 3.0))
        size = draw(st.sampled_from([0.0, 1e-16, 1.0, 1e16]))
        value = size * complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        segs.append((lo, lo + width, draw(st.sampled_from([0, 0, 1, -2])), value))
        cursor = lo + width
    return segs


@given(st.lists(sweep_rows(), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_batched_sweep_is_the_row_sweep(rows):
    # rows never meet: each row of a batch gets what the sweep gives that
    # row's cells alone, bit for bit
    freqs = sorted({seg[2] for segs in rows for seg in segs}) or [0]

    def columns(segs):
        return (
            np.array([s[0] for s in segs], dtype=float),
            np.array([s[1] for s in segs], dtype=float),
            {n: np.array([s[3] if s[2] == n else 0.0 for s in segs], dtype=complex) for n in freqs},
        )

    where = np.array([b for b, segs in enumerate(rows) for _ in segs], dtype=int)
    row, lo, hi, waves = _sweep(len(rows), where, *columns([s for segs in rows for s in segs]))
    for b, segs in enumerate(rows):
        _, want_lo, want_hi, want = _sweep(1, np.zeros(len(segs), dtype=int), *columns(segs))
        mine = row == b
        got = {n: waves[n][mine] for n in freqs}
        assert_same_packet(StepPacket(lo[mine], hi[mine], got, _trusted=True),
                           StepPacket(want_lo, want_hi, want, _trusted=True))
        # the row carries n exactly when the one-packet sum keeps n
        parts = [(np.array([a]), np.array([z]), {n: np.array([v], dtype=complex)})
                 for a, z, n, v in segs]
        assert [n for n in freqs if np.any(got[n] != 0.0)] == list(_sum_cells(parts)[2])


def test_sum_keeps_a_nan_value():
    # a NaN value survives the snap: a sum never turns bad data into zero
    with np.errstate(invalid="ignore"):
        f = sum_packets([StepPacket.box(0.0, 1.0, np.nan)])
    assert f.lo.tolist() == [0.0] and np.isnan(f.waves[0][0])


@pytest.mark.parametrize("value", [np.inf, -np.inf, complex(1.0, np.inf), complex(-np.inf, 0.0)])
def test_constructors_refuse_an_infinite_value(value):
    # the snap would erase an infinite value, and its running sum would
    # write NaN into the next gap: every constructor refuses it instead
    with pytest.raises(ValidationError):
        StepPacket.box(0.0, 1.0, value)
    with pytest.raises(ValidationError):
        StepPacket([0.0, 2.0], [1.0, 3.0], {0: [1.0, value]})
    with pytest.raises(ValidationError):
        StepPacket.from_breakpoints([0.0, 1.0, 2.0], [value, 1.0])


def rows_of(ps):
    """A batch whose row b holds the cells of packet ps[b] as they are."""
    return PacketBatch(len(ps), *_gather([(np.full(p.n_cells, b), p.lo, p.hi, p.waves) for b, p in enumerate(ps)]))


def sum_rows(pieces):
    """The row-wise sum of batches in one batched sweep (``_sum_rows``)."""
    size = pieces[0].size
    return PacketBatch(size, *_sum_rows(size, [(p.row, p.lo, p.hi, p.waves) for p in pieces]))


three_pieces = st.lists(packets() | st.just(StepPacket.zero()), min_size=3, max_size=3)


@given(st.lists(three_pieces, min_size=1, max_size=4), st.data())
@settings(max_examples=100, deadline=None)
def test_batch_methods_are_the_packet_methods(grid, data):
    # per row: shift, scale (0 on some rows), clip, then one sum of three pieces
    size = len(grid)
    shifts = np.array(data.draw(st.lists(finite, min_size=size, max_size=size)))
    # a weight of 0 drops a row; 5e-324 zeroes some values and keeps the cells
    weight = small_complex | st.sampled_from([0j, 5e-324])
    weights = [data.draw(st.lists(weight, min_size=size, max_size=size)) for _ in range(3)]
    clips = [(-np.inf, 0.0), (-1.0, 2.5), (1.0, np.inf)]
    pieces = []
    for k in range(3):
        batch = rows_of([grid[b][k] for b in range(size)])
        pieces.append(batch.translate(shifts).scale(weights[k]).restrict(*clips[k]))
    got = sum_rows(pieces).packets()
    for b in range(size):
        want = sum_packets(
            grid[b][k].translate(shifts[b]).scale(weights[k][b]).restrict(*clips[k])
            for k in range(3)
        )
        assert_same_packet(got[b], want)


def test_batch_sum_skips_a_packet_without_frequencies():
    # a clipped packet whose kept values are all zero keeps its cells but no
    # frequency, and adds no edge: here it would pull the edge at 1 to 1 - 5e-15
    f = StepPacket.box(0.0, 1.0, 1.0)
    g = StepPacket.box(1.0 - 5e-15, 2.0, 1e-300).scale(1e-300).restrict()
    assert g.n_cells == 1 and not g.waves
    no_freq = PacketBatch.tile(g, 2).scale(1e-300).restrict()
    got = sum_rows([PacketBatch.tile(f, 2), no_freq]).packets()
    for packet in got:
        assert_same_packet(packet, sum_packets([f, g]))
        assert packet.hi.tolist() == [1.0]


def test_a_cell_of_zero_values_moves_no_edge():
    # the sweep's one empty rule: a cell whose values all vanish adds nothing,
    # not even edges, whether or not its packet holds a live cell; here its
    # edge at 2 would pull the edge at 2 + 5e-15 onto 2
    near = StepPacket.box(2.0 + 5e-15, 3.0, 1.0)
    mixed = StepPacket([0.0, 1.0], [1.0, 2.0], {0: [1.0, 0.0]})
    alone = [StepPacket.box(0.0, 1.0, 1.0), StepPacket([1.0], [2.0], {0: [0.0]})]
    assert mixed.n_cells == 2 and alone[1].n_cells == 1
    want = [0.0, 2.0 + 5e-15]
    for parts in ([mixed, near], [*alone, near]):
        assert sum_packets(parts).lo.tolist() == want
        for row in sum_rows([PacketBatch.tile(p, 2) for p in parts]).packets():
            assert row.lo.tolist() == want


def assert_frequency_rule(p):
    """The frequency rule: ascending keys, each with a nonzero value."""
    assert list(p.waves) == sorted(p.waves)
    for v in p.waves.values():
        assert np.any(v != 0.0)


@given(st.lists(boxes(), min_size=1, max_size=4), st.lists(finite, min_size=2, max_size=2),
       st.data())
@settings(max_examples=100, deadline=None)
def test_every_packet_keeps_the_frequency_rule(parts, shifts, data):
    f = sum_packets(parts)
    # 5e-324 zeroes every value under 1/2 in size and keeps the rest
    weights = [data.draw(small_complex | st.sampled_from([0j, 5e-324])) for _ in range(2)]
    lo, hi = sorted(data.draw(st.lists(finite, min_size=2, max_size=2)))
    m = data.draw(freqs)

    def shifted(p):  # p times e(m x): every frequency moves by m
        return StepPacket(p.lo, p.hi, {n + m: v for n, v in p.waves.items()})

    tiny = f.scale(5e-324)
    made = [f, tiny, tiny.translate(shifts[0]), f.translate(shifts[0]), f.scale(weights[0])]
    made += [f.restrict(lo, hi), tiny.restrict(lo, hi), f.conjugate(), shifted(f)]
    # the untrusted constructor sorts the keys and drops an all-zero frequency
    waves = {n: f.waves[n] for n in reversed(f.waves)} | {9: np.zeros(f.n_cells)}
    built = StepPacket(f.lo, f.hi, waves)
    assert_same_packet(built, f)
    made.append(built)
    batch = rows_of([f, shifted(f.conjugate())])
    batch = batch.translate(shifts).scale(weights).restrict(lo, hi)
    made += batch.packets()
    made += sum_rows([batch, PacketBatch.tile(tiny, 2)]).packets()
    for p in made:
        assert_frequency_rule(p)


def test_a_merge_that_zeroes_a_frequency_drops_it():
    # the cells join within VALUE_TOL, and the merged cell keeps the first
    # cell's frequency-1 value, 0
    f = sum_packets([
        StepPacket.box(0.0, 1.0, 1.0),
        StepPacket.box(1.0, 2.0, 1.0),
        StepPacket.box(1.0, 2.0, 5e-15, freq=1),
    ])
    assert f.lo.tolist() == [0.0] and f.hi.tolist() == [2.0]
    assert list(f.waves) == [0]


def test_merge_closes_edges_within_the_rule_and_refuses_a_wider_overlap():
    # pieces side by side: a gap or overlap within the edge rule closes onto
    # its leftmost edge, as the edge clusters of a sweep close it, and cells
    # of different pieces whose stacks agree join; an overlap wider than the
    # rule is an error
    def merged(*ps):
        return merge_batch([PacketBatch.tile(p, 2) for p in ps]).packets()

    left = StepPacket.box(0.0, 1.0, 1.0)
    for right in (StepPacket.box(1.0 - 5e-15, 2.0, 2.0), StepPacket.box(1.0 + 5e-15, 2.0, 2.0)):
        for got in merged(right, left):
            assert_same_packet(got, left + right)
            assert got.hi[0] == got.lo[1] == min(1.0, right.lo[0])
    for got in merged(StepPacket.box(1.0 - 5e-15, 2.0, 1.0), left):
        assert_same_packet(got, StepPacket.box(0.0, 2.0, 1.0))
    far = StepPacket.box(1e3 - 5e-12, 1e3 + 1.0, 2.0)  # the rule widens with |x|
    for got in merged(StepPacket.box(999.0, 1e3, 1.0), far):
        assert got.lo.tolist() == [999.0, 1e3 - 5e-12] and got.hi[0] == got.lo[1]
    with pytest.raises(OrderingViolation):
        merged(left, StepPacket.box(1.0 - 3e-14, 2.0, 2.0))


def test_from_breakpoints():
    f = StepPacket.from_breakpoints(np.array([0.0, 1.0, 2.5]), np.array([2.0, -1.0 + 1j]))
    assert f.n_cells == 2
    assert f.sample(np.array([0.5]))[0] == 2.0
    assert f.sample(np.array([2.0]))[0] == -1.0 + 1j


def test_scale_and_neg():
    f = StepPacket.box(0.0, 1.0, 2.0)
    assert abs((-f).sample(np.array([0.5]))[0] + 2.0) < 1e-15
    assert abs(f.scale(0.5j).norm2() - 0.25 * f.norm2()) < 1e-15


def test_inner_against_quadrature():
    f = StepPacket.box(0.0, 2.0, 1.0, freq=1)
    g = StepPacket.box(1.0, 3.0, 1.0 - 1.0j, freq=-1)
    edges = np.linspace(1.0, 2.0, 200001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = edges[1] - edges[0]
    direct = np.sum(np.conj(f.sample(mids)) * g.sample(mids)) * h
    assert abs(f.inner(g) - direct) < 1e-8


# a body wider than two steps, so three lags C_k = <B, B(. + k step)> are nonzero
_BODY = StepPacket.box(0.0, 2.5, 1.0 - 0.5j) + StepPacket.box(0.7, 1.2, 0.3j, freq=1)
_HEAD = StepPacket.box(-1.5, 0.9, 0.4 + 0.2j) + StepPacket.box(1.5, 3.1, -0.8, freq=-1)
_RATIO = 0.6 * complex(e2pi(0.2))


def _train(step, head=_HEAD, body=_BODY):
    return PacketTrain(head, body, _RATIO, step, 1.0 - 0.36)


@pytest.mark.parametrize("step", [1.0, -1.0])
def test_train_norm_is_the_lag_sum(step):
    body_only = _train(step, head=StepPacket.zero())
    lags = [_BODY.inner(_BODY.translate(-k * step)) for k in range(4)]
    want = (lags[0].real + 2.0 * sum((_RATIO**k * lags[k]).real for k in (1, 2, 3))) / 0.64
    assert abs(body_only.norm2() - want) <= 1e-14 * want


@pytest.mark.parametrize("step", [1.0, -1.0])
def test_train_matches_its_materialisation(step):
    # 0.6^200 leaves nothing of the train beyond 200 terms
    t, u = _train(step), _train(step, head=_BODY, body=_HEAD).translate(0.3)
    mt, mu = t.materialize(200), u.materialize(200)
    g = StepPacket.box(-4.0, 2.0, 0.5j, freq=2)
    assert abs(t.norm2() - mt.norm2()) <= 1e-14 * mt.norm2()
    assert abs(t.inner(g) - mt.inner(g)) <= 1e-14 * np.sqrt(mt.norm2() * g.norm2())
    assert abs(t.inner(u) - mt.inner(mu)) <= 1e-14 * np.sqrt(mt.norm2() * mu.norm2())
    assert abs(t.distance2(u) - mt.distance2(mu)) <= 1e-14 * (mt.norm2() + mu.norm2())
    assert t.restrict(-3.0, 4.0).distance2(mt.restrict(-3.0, 4.0)) <= 1e-28
    # a packet pairs with a train from its side too
    assert g.inner(t) == t.inner(g).conjugate()
    assert g.distance2(t) == pytest.approx(t.distance2(g), rel=1e-14)
    assert t.max_abs() == pytest.approx(mt.max_abs(), rel=1e-14)


@pytest.mark.parametrize("step", [1.0, -1.0])
def test_train_written_two_ways_is_at_distance_zero(step):
    # head + B + ratio * (train of B(. + step)) is the same function
    t = _train(step)
    other = _train(step, head=_HEAD + _BODY, body=_BODY.translate(-step).scale(_RATIO))
    assert t.distance2(other) <= 1e-28 * t.norm2()


def test_train_with_empty_body_is_its_head():
    g = StepPacket.box(-1.0, 0.5, 2.0 - 1.0j)
    t = _train(1.0, body=StepPacket.zero())
    assert t.norm2() == _HEAD.norm2()
    assert t.inner(g) == _HEAD.inner(g)
    assert t.distance2(g) == _HEAD.distance2(g)
    assert t.max_abs() == _HEAD.max_abs()
    assert t.materialize(5) is _HEAD


def test_train_distance_sweeps_once(monkeypatch):
    # both heads and every term of both bodies that reaches the cut's near
    # side and window go into one sweep; the norms read it with no other
    swept = count_sweeps(monkeypatch)
    for step in (1.0, -1.0):
        t, u = _train(step), _train(step, head=_BODY, body=_HEAD).translate(0.3)
        swept.clear()
        t.distance2(u)
        assert swept == [1]
        swept.clear()
        _BODY.distance2(t)  # a packet's distance to a train takes the same route
        assert swept == [1]


@st.composite
def train_pairs(draw):
    """Two trains of one random ratio (|ratio| <= 0.9), step of either sign
    and leak; heads and bodies of up to three boxes of frequency -1 to 2,
    any of them possibly empty."""
    def part():
        cells = st.tuples(finite, st.floats(0.01, 5.0), small_complex, st.integers(-1, 2))
        return sum_packets([StepPacket.box(a, a + w, v, freq=n) for a, w, v, n in draw(st.lists(cells, max_size=3))])

    ratio = draw(st.floats(0.0, 0.9)) * complex(e2pi(draw(st.floats(0.0, 1.0))))
    step = draw(st.floats(0.2, 6.0)) * draw(st.sampled_from([1.0, -1.0]))
    leak = 1.0 - abs(ratio) ** 2
    return [PacketTrain(part(), part(), ratio, step, leak) for _ in range(2)]


@given(train_pairs())
@settings(max_examples=300, deadline=None)
def test_train_distance_is_the_norm_of_the_difference(trains):
    # the one-sweep distance and the difference train's norm are one number
    # to rounding
    a, b = trains
    assert abs(a.distance2(b) - (a - b).norm2()) <= 1e-14 * (a.norm2() + b.norm2())


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: the body sum joins i v - v to i v, closer than the absolute VALUE_TOL",
)
def test_train_difference_keeps_values_below_the_absolute_tolerance():
    # the property's falsifying example at --hypothesis-seed=10: a.distance2(b)
    # reads v^2, as it should, but (a - b).norm2() reads 2 v^2
    v = 1.0287693087593056e-102
    a = PacketTrain(StepPacket.zero(), StepPacket.box(0.0, 2.0, 1j * v), 0j, 1.0, 1.0)
    b = PacketTrain(StepPacket.box(0.0, 2.0, 1j * v), StepPacket.box(0.0, 1.0, v), 0j, 1.0, 1.0)
    assert abs(a.distance2(b) - (a - b).norm2()) <= 1e-14 * (a.norm2() + b.norm2())


def test_train_rejects_what_it_cannot_sum():
    t = _train(1.0)
    with pytest.raises(ValidationError):
        t.restrict(hi=0.0)  # a positive step runs the train to -inf
    with pytest.raises(ValidationError):
        t.distance2(PacketTrain(_HEAD, _BODY, _RATIO, 2.0, 0.64))
    with pytest.raises(ValidationError):
        PacketTrain(_HEAD, _BODY, 1.0, 1.0, 0.0)
