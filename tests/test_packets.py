import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogap.batch import PacketBatch, _assemble_rows, sum_batch
from twogap.domain import e2pi
from twogap.errors import ValidationError
from twogap.packets import (
    EDGE_TOL,
    PacketTrain,
    StepPacket,
    _assemble,
    osc_integral,
    sum_packets,
)

from conftest import assert_same_packet

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


def test_modulate_shifts_transform():
    f = StepPacket.box(-1.0, 1.0, 1.0)
    g = f.modulate(2)
    lam = np.array([-0.7, 0.2, 2.0])
    assert np.allclose(g.transform(lam), f.transform(lam - 2), atol=1e-13)


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
    # each row of the batch gets what _assemble gives that row alone, bit for bit
    flat = [(b, *seg) for b, segs in enumerate(rows) for seg in segs]
    freqs = sorted({seg[3] for seg in flat}) or [0]
    vals = {n: np.array([s[4] if s[3] == n else 0.0 for s in flat], dtype=complex) for n in freqs}
    row, lo, hi, waves = _assemble_rows(
        len(rows),
        np.array([s[0] for s in flat], dtype=int),
        np.array([s[1] for s in flat], dtype=float),
        np.array([s[2] for s in flat], dtype=float),
        vals,
    )
    for b, segs in enumerate(rows):
        by_freq = {}
        for seg_lo, seg_hi, n, v in segs:
            for col, x in zip(by_freq.setdefault(n, ([], [], [])), (seg_lo, seg_hi, v)):
                col.append(x)
        want = StepPacket(*_assemble(by_freq), _trusted=True) if by_freq else StepPacket.zero()
        mine = row == b
        got = {n: waves[n][mine] for n in want.waves}
        assert_same_packet(StepPacket(lo[mine], hi[mine], got, _trusted=True), want)
        assert [n for n in freqs if np.any(waves[n][mine] != 0.0)] == list(want.waves)


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
        batch = PacketBatch.tile(grid[0][k], size)
        for b in range(1, size):
            row_b = PacketBatch.tile(grid[b][k], size)
            batch = PacketBatch.select(np.arange(size) == b, row_b, batch)
        pieces.append(batch.translate(shifts).scale(weights[k]).restrict(*clips[k]))
    got = sum_batch(pieces).packets()
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
    got = sum_batch([PacketBatch.tile(f, 2), no_freq]).packets()
    for packet in got:
        assert_same_packet(packet, sum_packets([f, g]))
        assert packet.hi.tolist() == [1.0]


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
    tiny = f.scale(5e-324)
    made = [f, tiny, tiny.translate(shifts[0]), f.translate(shifts[0]), f.scale(weights[0])]
    made += [f.restrict(lo, hi), tiny.restrict(lo, hi), f.conjugate(), f.modulate(m)]
    # the untrusted constructor sorts the keys and drops an all-zero frequency
    waves = {n: f.waves[n] for n in reversed(f.waves)} | {9: np.zeros(f.n_cells)}
    built = StepPacket(f.lo, f.hi, waves)
    assert_same_packet(built, f)
    made.append(built)
    rows = (PacketBatch.tile(f, 2), PacketBatch.tile(f.conjugate().modulate(m), 2))
    batch = PacketBatch.select(np.array([True, False]), *rows)
    batch = batch.translate(shifts).scale(weights).restrict(lo, hi)
    made += batch.packets()
    made += sum_batch([batch, PacketBatch.tile(tiny, 2)]).packets()
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


def test_train_rejects_what_it_cannot_sum():
    t = _train(1.0)
    with pytest.raises(ValidationError):
        t.restrict(hi=0.0)  # a positive step runs the train to -inf
    with pytest.raises(ValidationError):
        t.distance2(PacketTrain(_HEAD, _BODY, _RATIO, 2.0, 0.64))
    with pytest.raises(ValidationError):
        PacketTrain(_HEAD, _BODY, 1.0, 1.0, 0.0)
