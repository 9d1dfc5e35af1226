"""Unitary evolution, scattering action, translation representations."""

import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twogap import batch, cli, evolution, multipliers
from twogap.degenerate import OneIntervalModel, OnePointModel, degenerate_evolve
from twogap.domain import e2pi, make_boundary_matrix, make_domain
from twogap.errors import (
    DegenerateRegime,
    EmptySupport,
    SupportViolation,
    ValidationError,
)
from twogap.evolution import (
    block_matrix_entry,
    block_row,
    cesaro_decay,
    correlation,
    decompose,
    evolve,
    evolve_many,
    scatter,
    translation_representation,
)
from twogap.multipliers import BLOCK_KIND
from twogap.packets import EDGE_TOL, VALUE_TOL, StepPacket, _wider, sum_packets
from twogap.scenario import bundled_scenario
from twogap.semigroup import compress_evolve, compress_evolve_many

from conftest import (
    apply_series,
    assert_same_packet,
    cells_in_order,
    count_sweeps,
    cut_series,
    forbid_series,
    random_boundary,
    random_geometry,
    random_packet,
    side_by_side,
    splice_at,
    wrap_at,
)


def test_half_coupling_transmitted_train(ex59, ex59_packet):
    # the unit box crossing the first barrier spawns the geometric train
    # (sqrt(3)/2) (1/2)^n at shifts 1 - n before clipping to the middle
    bm, dom = ex59
    f = ex59_packet
    got = block_matrix_entry(bm, dom, "izero", "iminus", f, t=0.0)
    manual = StepPacket.zero()
    for n in range(48):
        term = f.translate(1.0 - n).scale((np.sqrt(3.0) / 2.0) * 0.5**n)
        manual = manual + term.restrict(1.0, 2.0)
    assert got.distance2(manual) < 1e-22


def test_half_coupling_scatter_train(ex59, ex59_packet):
    # outgoing wave: -(1/2) f(x-3) + (3/4) sum (1/2)^n f(x-3+(n+1))
    bm, dom = ex59
    f = ex59_packet
    got = scatter(bm, dom, f)
    manual = f.translate(3.0).scale(-0.5)
    for n in range(48):
        manual = manual + f.translate(3.0 - (n + 1)).scale(0.75 * 0.5**n)
    assert got.distance2(manual) < 1e-22


def test_unitarity_and_group_law_battery():
    rng = np.random.default_rng(70)
    for _ in range(6):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        f = random_packet(rng, lo=-3.0, hi=-0.1, freqs=(0, 1))
        n2 = f.norm2()
        for t in (-2.3, -0.4, 0.7, 3.1):
            res = evolve(bm, dom, f, t)
            assert abs(res.packet.norm2() - n2) < 1e-10 * max(1.0, n2)
        for s, t in ((0.6, 1.1), (-0.9, 2.4), (1.7, -1.7)):
            two_step = evolve(bm, dom, evolve(bm, dom, f, t).packet, s).packet
            one_step = evolve(bm, dom, f, s + t).packet
            assert two_step.distance2(one_step) < 1e-18


def test_inverse_evolution():
    rng = np.random.default_rng(71)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    f = random_packet(rng)
    back = evolve(bm, dom, evolve(bm, dom, f, 1.3).packet, -1.3).packet
    assert back.distance2(f) < 1e-20


def test_adjointness():
    rng = np.random.default_rng(72)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    f = random_packet(rng, lo=-3.0, hi=-0.2)
    g = random_packet(rng, lo=dom.beta + 0.1, hi=dom.beta + 2.5)
    t = 1.45
    lhs = evolve(bm, dom, f, t).packet.inner(g)
    rhs = f.inner(evolve(bm, dom, g, -t).packet)
    assert abs(lhs - rhs) < 1e-10


def test_blocks_sum_to_evolution():
    rng = np.random.default_rng(73)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    f = random_packet(rng, lo=-2.0, hi=-0.1) + random_packet(
        rng, lo=dom.beta + 0.2, hi=dom.beta + 2.0
    )
    t = 0.9
    total = sum_packets(
        [
            block_matrix_entry(bm, dom, dest, src, f, t)
            for dest in ("iminus", "izero", "iplus")
            for src in ("iminus", "izero", "iplus")
        ]
    )
    assert total.distance2(evolve(bm, dom, f, t).packet) < 1e-22


def test_probability_split_first_barrier():
    rng = np.random.default_rng(74)
    for _ in range(5):
        bm = random_boundary(rng)
        dom = make_domain(2.0, 3.0)
        f = StepPacket.box(-0.25, 0.0, 1.0)
        t = 0.5
        u = evolve(bm, dom, f, t).packet
        mid = u.restrict(1.0, dom.alpha)
        out = u.restrict(lo=dom.beta)
        n2 = f.norm2()
        assert abs(mid.norm2() - bm.w**2 * n2) < 1e-10
        assert abs(out.norm2() - (1.0 - bm.w**2) * n2) < 1e-10
        # phases: w e(-phi) f(x-t-1) in the middle, -q e(psi-theta) f(x-t-beta) beyond
        xs_mid = np.array([1.3, 1.45])
        want_mid = bm.w * e2pi(-bm.phi) * f.sample(xs_mid - t - 1.0)
        assert np.max(np.abs(mid.sample(xs_mid) - want_mid)) < 1e-12
        xs_out = np.array([dom.beta + 0.3, dom.beta + 0.45])
        want_out = -bm.q * e2pi(bm.psi - bm.theta) * f.sample(xs_out - t - dom.beta)
        assert np.max(np.abs(out.sample(xs_out) - want_out)) < 1e-12


def test_causal_support():
    # nothing moves faster than the unit-speed translation
    rng = np.random.default_rng(75)
    bm = random_boundary(rng)
    dom = make_domain(2.0, 3.5)
    f = StepPacket.box(-1.0, -0.5, 1.0)
    for t in (0.2, 0.45):
        sup = evolve(bm, dom, f, t).packet.support()
        assert sup[1] <= -0.5 + t + 1e-12


def test_outgoing_halfline_is_invariant():
    # packets beyond beta just translate for t > 0
    rng = np.random.default_rng(76)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    f = random_packet(rng, lo=dom.beta + 0.05, hi=dom.beta + 2.0)
    for t in (0.3, 1.7, 6.0):
        got = evolve(bm, dom, f, t).packet
        assert got.distance2(f.translate(t)) < 1e-24


def test_incoming_halfline_invariant_backwards():
    rng = np.random.default_rng(77)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    f = random_packet(rng, lo=-4.0, hi=-0.05)
    for t in (-0.4, -2.2):
        got = evolve(bm, dom, f, t).packet
        assert got.distance2(f.translate(t)) < 1e-24


def test_translation_representations():
    rng = np.random.default_rng(78)
    for _ in range(4):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        f = random_packet(rng, lo=-3.0, hi=-0.2)
        fp = random_packet(rng, lo=dom.beta + 0.1, hi=dom.beta + 2.0)
        # identity on the respective half-lines
        assert translation_representation(bm, dom, fp, "+").distance2(fp) == 0.0
        assert translation_representation(bm, dom, f, "-").distance2(f) == 0.0
        # intertwining with the unitary evolution
        for sign in ("+", "-"):
            for t in (0.8, -1.3):
                lhs = translation_representation(
                    bm, dom, evolve(bm, dom, f + fp, t).packet, sign
                )
                rhs = translation_representation(bm, dom, f + fp, sign).translate(t)
                assert lhs.distance2(rhs) < 1e-18


def test_representations_norm_preserving():
    rng = np.random.default_rng(79)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    f = random_packet(rng, lo=-3.0, hi=-0.2) + random_packet(
        rng, lo=1.0 + 1e-3, hi=dom.alpha - 1e-3
    )
    for sign in ("+", "-"):
        r = translation_representation(bm, dom, f, sign)
        assert abs(r.norm2() - f.norm2()) < 1e-9 * max(1.0, f.norm2())


def test_scatter_unitary_and_support():
    rng = np.random.default_rng(80)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    f = random_packet(rng, lo=-4.0, hi=-0.3)
    out = scatter(bm, dom, f)
    assert abs(out.norm2() - f.norm2()) < 1e-9 * max(1.0, f.norm2())
    with pytest.raises(EmptySupport):
        scatter(bm, dom, StepPacket.box(1.1, 1.2, 1.0))


# t = inf trains: cells on all three components, a frequency-1 cell on each
_TRAIN_DOMAIN = make_domain(2.25, 3.75)
_TRAIN_F = (
    StepPacket.box(-2.6, -1.9, 0.8 - 0.3j)
    + StepPacket.box(-1.4, -0.35, -0.6 + 0.9j, freq=1)
    + StepPacket.box(-0.3, -0.05, 1.1)
)
_TRAIN_REST = (
    StepPacket.box(1.1, 1.8, 0.4 + 0.5j)
    + StepPacket.box(1.9, 2.2, -0.7, freq=1)
    + StepPacket.box(4.0, 4.9, 0.3 - 0.8j, freq=1)
)


@pytest.mark.parametrize("psi", [0.0, 0.45])
@pytest.mark.parametrize("w", [0.9, 0.5, 0.2, 0.05, 0.01, 0.001])
def test_trains_keep_norm_exactly(w, psi):
    # leak w^2, not 1 - |z|^2 of the rounded z: at w = 0.001 that errs by 1e-11
    bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=psi)
    dom, f = _TRAIN_DOMAIN, _TRAIN_F
    assert abs(scatter(bm, dom, f).norm2() - f.norm2()) <= 1e-13 * f.norm2()
    g = f + _TRAIN_REST
    for sign in ("+", "-"):
        rep = translation_representation(bm, dom, g, sign)
        assert abs(rep.norm2() - g.norm2()) <= 1e-13 * g.norm2()


@pytest.mark.parametrize("w", [0.9, 0.5, 0.2, 0.05])
def test_scatter_train_within_series_tail(w):
    # the exact train against the whole a_inv_c series cut at 1e-12: on the
    # series' support they differ by the dropped terms, which its tail bounds
    bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45)
    dom, f = _TRAIN_DOMAIN, _TRAIN_F
    scale = np.sqrt(f.norm2())
    series = cut_series(bm, dom, "a_inv_c")
    cut = apply_series(series, f)
    train = scatter(bm, dom, f)
    gap = np.sqrt(train.restrict(*cut.support()).distance2(cut))
    assert gap <= series.tail * scale + 1e-14 * scale
    # as many terms as the series, materialised (its direct reflection is the head)
    same = train.materialize(len(series.coeffs) - 1)
    assert np.sqrt(same.distance2(cut)) <= 1e-14 * scale


@st.composite
def incoming_packets(draw):
    """(bm, dom, f_in): w from {0.9, 0.5, 0.2, 0.05} and one to three cells
    of frequency 0, 1 or 2 on (-4, 0)."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    w = draw(st.sampled_from([0.9, 0.5, 0.2, 0.05]))
    bm = make_boundary_matrix(w=w, theta=draw(unit), phi=draw(unit), psi=draw(unit))
    alpha = draw(st.floats(1.2, 3.0))
    dom = make_domain(alpha, alpha + draw(st.floats(0.3, 2.0)))
    f = StepPacket.zero()
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.floats(-4.0, -0.1))
        b = draw(st.floats(a + 1e-3, 0.0))
        value = draw(st.floats(0.1, 2.0)) * complex(e2pi(draw(unit)))
        f = f + StepPacket.box(a, b, value, freq=draw(st.sampled_from([0, 1, 2])))
    return bm, dom, f


@given(incoming_packets(), st.floats(1.0, 30.0))
@settings(max_examples=100, deadline=None)
def test_finite_time_outgoing_part_is_the_scattered_train(case, t):
    # the two exact routes agree: nothing on I_plus comes back, so at any
    # t the part of U(t) f_in on I_plus is the t = inf train moved by t
    bm, dom, f = case
    beta = dom.component("iplus")[0]
    got = evolve(bm, dom, f, t).packet.restrict(beta)
    want = scatter(bm, dom, f).translate(t).restrict(beta)
    # worst measured over 2,000 draws: 6.1e-15
    assert np.sqrt(got.distance2(want)) <= 1e-13 * np.sqrt(f.norm2())


def test_scatter_cost_follows_cells():
    # at w = 0.01 the 1e-12 series holds about 750,000 terms; the train holds f twice
    bm = make_boundary_matrix(w=0.01, theta=0.15, phi=0.3, psi=0.45)
    out = scatter(bm, _TRAIN_DOMAIN, _TRAIN_F)
    assert out.head.n_cells + out.body.n_cells <= 2 * _TRAIN_F.n_cells


def test_weak_coupling_representations_intertwine():
    rng = np.random.default_rng(93)
    for _ in range(4):
        bm = make_boundary_matrix(
            w=rng.uniform(0.01, 0.3),
            theta=rng.uniform(0.0, 1.0),
            phi=rng.uniform(0.0, 1.0),
            psi=rng.uniform(0.0, 1.0),
        )
        dom = random_geometry(rng)
        f = (
            random_packet(rng, lo=-3.0, hi=-0.2, freqs=(0, 1))
            + random_packet(rng, lo=1.0 + 1e-3, hi=dom.alpha - 1e-3)
            + random_packet(rng, lo=dom.beta + 0.1, hi=dom.beta + 2.0)
        )
        for sign in ("+", "-"):
            rep = translation_representation(bm, dom, f, sign)
            for t in (0.8, -1.3):
                lhs = translation_representation(bm, dom, evolve(bm, dom, f, t).packet, sign)
                assert lhs.distance2(rep.translate(t)) < 1e-18


def test_decoupled_wrap_phase():
    bm = make_boundary_matrix(w=0.0, theta=0.125, psi=0.25)
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(1.2, 1.8, 1.0 - 0.5j)
    one_wrap = evolve(bm, dom, f, dom.ell).packet
    assert one_wrap.distance2(f.scale(e2pi(-bm.psi))) < 1e-28
    # partial wrap conserves mass and stays inside the middle interval
    part = evolve(bm, dom, f, 0.7).packet
    assert abs(part.norm2() - f.norm2()) < 1e-13
    assert part.support()[0] >= 1.0 and part.support()[1] <= dom.alpha


def test_decoupled_splice_phase():
    bm = make_boundary_matrix(w=0.0, theta=0.125, psi=0.25)
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(-0.5, 0.0, 1.0)
    g = evolve(bm, dom, f, 1.0).packet
    want = f.translate(dom.beta + 1.0).scale(-e2pi(bm.psi - bm.theta))
    assert g.distance2(want) < 1e-28
    # round trip is exact
    back = evolve(bm, dom, g, -1.0).packet
    assert back.distance2(f) < 1e-28


def test_decoupled_no_mixing():
    bm = make_boundary_matrix(w=0.0, theta=0.4, psi=0.7)
    dom = make_domain(2.5, 4.0)
    f_mid = StepPacket.box(1.3, 2.2, 1.0)
    f_out = StepPacket.box(-2.0, -1.0, 1.0) + StepPacket.box(4.5, 5.0, 0.5j)
    for t in (0.9, 3.7, -2.1):
        gm = evolve(bm, dom, f_mid, t).packet
        go = evolve(bm, dom, f_out, t).packet
        assert gm.restrict(hi=1.0).is_empty and gm.restrict(lo=dom.alpha).is_empty
        assert go.restrict(1.0, dom.alpha).is_empty
        assert abs(gm.inner(go)) == 0.0


def _decoupled_packet(rng, dom):
    # random cells with frequencies 0 and 1 on each of the three components
    return sum_packets(
        [
            random_packet(rng, lo=-3.0, hi=-0.1, freqs=(0, 1)),
            random_packet(rng, lo=1.05, hi=dom.alpha - 0.05, n_cells=2, freqs=(0, 1)),
            random_packet(rng, lo=dom.beta + 0.1, hi=dom.beta + 3.0, freqs=(0, 1)),
        ]
    )


def _same_bits(f, g):
    return (
        np.array_equal(f.lo, g.lo)
        and np.array_equal(f.hi, g.hi)
        and f.waves.keys() == g.waves.keys()
        and all(np.array_equal(f.waves[n], g.waves[n]) for n in f.waves)
    )


def test_decoupled_group_law():
    # dyadic times of both signs, long enough to wrap the middle interval
    # and to carry half-line mass across the cut [0, beta] both ways
    rng = np.random.default_rng(90)
    pairs = [(0.75, 2.5), (-1.5, 4.25), (3.125, -3.5), (-2.0, -1.25)]
    for _ in range(4):
        bm = make_boundary_matrix(w=0.0, theta=rng.uniform(), phi=rng.uniform(), psi=rng.uniform())
        dom = random_geometry(rng)
        f = _decoupled_packet(rng, dom)
        ts = sorted({t for pair in pairs for t in (*pair, sum(pair), -pair[1])})
        on_grid = dict(zip(ts, (r.packet for r in evolve_many(bm, dom, f, ts))))
        for t in ts:
            assert _same_bits(on_grid[t], evolve(bm, dom, f, t).packet)
        for s, t in pairs:
            twice = evolve(bm, dom, on_grid[t], s).packet
            assert twice.distance2(on_grid[s + t]) <= 1e-28
            back = evolve(bm, dom, on_grid[t], -t).packet
            assert back.distance2(f) <= 1e-28


def test_correlation_decays(ex59, ex59_packet):
    bm, dom = ex59
    f = ex59_packet
    c40 = correlation(bm, dom, f, f, 40.0)
    assert abs(c40) < 0.1 * f.norm2()


def test_cesaro_matches_brute_force(ex59, ex59_packet):
    bm, dom = ex59
    f = ex59_packet
    T = 4.0
    exact = cesaro_decay(bm, dom, f, f, [T])
    ts = np.linspace(-T, T, 4001)
    mids = 0.5 * (ts[:-1] + ts[1:])
    h = ts[1] - ts[0]
    vals = [abs(correlation(bm, dom, f, f, t)) ** 2 for t in mids]
    brute = float(np.sum(vals) * h / (2.0 * T))
    assert exact == pytest.approx(brute, abs=2e-4)


def test_cesaro_trend(ex59, ex59_packet):
    bm, dom = ex59
    avgs = cesaro_decay(bm, dom, ex59_packet, ex59_packet, [10.0, 100.0])
    assert avgs[1] < avgs[0]


def test_cesaro_skips_a_component_of_zero_values(ex59, ex59_packet):
    # f's cell in the middle interval holds 0, so that part carries no frequency
    bm, dom = ex59
    f = ex59_packet
    padded = StepPacket(np.append(f.lo, 1.2), np.append(f.hi, 1.5), {0: np.append(f.waves[0], 0.0)})
    middle = padded.restrict(*dom.component("izero"))
    assert middle.n_cells == 1 and not middle.waves
    want = cesaro_decay(bm, dom, f, f, [10.0, 100.0])
    assert cesaro_decay(bm, dom, padded, padded, [10.0, 100.0]).tobytes() == want.tobytes()


def test_error_paths():
    dom = make_domain(2.0, 3.0)
    bm = make_boundary_matrix(w=0.6)
    dec = make_boundary_matrix(w=0.0)
    f = StepPacket.box(-1.0, -0.5, 1.0)
    bad = StepPacket.box(0.2, 0.8, 1.0)  # sits on a removed interval
    with pytest.raises(SupportViolation):
        decompose(bad, dom)
    with pytest.raises(DegenerateRegime):
        scatter(dec, dom, f)
    with pytest.raises(ValidationError):
        translation_representation(bm, dom, f, "out")
    with pytest.raises(ValidationError):
        block_matrix_entry(bm, dom, "izero", "elsewhere", f, 0.0)
    with pytest.raises(ValidationError):
        cesaro_decay(bm, dom, StepPacket.box(-1.0, -0.5, 1.0, freq=2), f, [1.0])
    with pytest.raises(ValidationError):
        cesaro_decay(bm, dom, f, f, [0.0])


def test_correlations_apply_the_leak_rule_to_both_packets():
    # f carries mass 15 on [0, 1]: refused whichever side it pairs on, as
    # g's is, not restricted away in silence
    bm = make_boundary_matrix(w=0.5, theta=0.1, phi=0.2, psi=0.3)
    dom = make_domain(2.0, 3.0)
    g = StepPacket.box(-2.0, -1.0, 1.0)
    f = g + StepPacket.box(0.2, 0.8, 5.0)
    for left, right in ((f, g), (g, f)):
        with pytest.raises(SupportViolation, match="off the domain"):
            cesaro_decay(bm, dom, left, right, [5.0])
        with pytest.raises(SupportViolation, match="off the domain"):
            correlation(bm, dom, left, right, 1.0)


def test_leak_rule_bound_is_relative_to_the_norm():
    # ||f||^2 = 1e6: obstacle mass 5e-7 (5e-13 relative) passes, 2e-6 raises;
    # mass on either removed interval counts, and the parts stay exact
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(-1.0, -0.5, np.sqrt(2e6)) + StepPacket.box(1.2, 1.7, 1.0)
    for lo, hi in ((0.0, 1.0), (dom.alpha, dom.beta)):
        sliver = StepPacket.box(lo + 0.25, lo + 0.25 + 5e-7, 1.0)
        parts = decompose(f + sliver, dom)
        for part, tag in zip(parts, evolution.COMPONENTS):
            assert part.distance2(f.restrict(*dom.component(tag))) == 0.0
        with pytest.raises(SupportViolation, match="off the domain"):
            decompose(f + sliver.scale(2.0), dom)


def test_leak_rule_skips_the_norm_of_a_clean_packet(monkeypatch):
    # no obstacle mass: no packet with cells is normed, f included
    normed = []
    norm2 = StepPacket.norm2
    monkeypatch.setattr(StepPacket, "norm2", lambda p: normed.append(p.n_cells) or norm2(p))
    decompose(StepPacket.box(-1.0, -0.5, 1.0) + StepPacket.box(1.2, 1.7, 1.0, freq=1), make_domain(2.0, 3.0))
    assert not any(normed)


# seven cells over all three components of alpha = 2, beta = 10/3, three of
# them oscillating
_WINDOW_DOMAIN = make_domain(2.0, 10.0 / 3.0)
_WINDOW_F = (
    StepPacket.box(-2.3, -1.4, 0.8 - 0.3j)
    + StepPacket.box(-1.1, -0.2, 1.2j, freq=1)
    + StepPacket.box(1.1, 1.45, -0.6 + 0.5j, freq=1)
    + StepPacket.box(1.6, 1.95, 0.9)
    + StepPacket.box(3.5, 4.2, 0.4 - 1.1j)
    + StepPacket.box(4.6, 5.3, -0.7, freq=1)
    + StepPacket.box(5.9, 6.4, 0.3 + 0.2j)
)
_COMPONENTS = ("iminus", "izero", "iplus")


def test_window_matches_full_series():
    # the causal window against every row's whole series at eps = 1e-15,
    # built once per w, then shifted and clipped per t
    dom, f = _WINDOW_DOMAIN, _WINDOW_F
    scale = np.sqrt(f.norm2())
    parts = decompose(f, dom)
    for w in (1.0, 0.9, 0.5, 0.2, 0.05):
        bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45)
        rows, budget = {}, 0.0
        for d in _COMPONENTS:
            pieces = []
            for s, p in zip(_COMPONENTS, parts):
                if p.is_empty:
                    continue
                if BLOCK_KIND[(d, s)] == "identity":
                    pieces.append(p)
                    continue
                m = cut_series(bm, dom, BLOCK_KIND[(d, s)], 1e-15)
                pieces.append(apply_series(m, p))
                budget += m.tail * np.sqrt(p.norm2())
            rows[d] = sum_packets(pieces)
        ts = (0.0, 0.5, 3.0, 20.0, -7.0, 100.0)
        for t, on_grid in zip(ts, evolve_many(bm, dom, f, ts)):
            ref = sum_packets(
                [rows[d].translate(t).restrict(*dom.component(d)) for d in _COMPONENTS]
            )
            for res in (evolve(bm, dom, f, t), on_grid):
                assert np.sqrt(res.packet.distance2(ref)) <= 1e-14 * scale + budget


def test_evolution_reads_no_series(monkeypatch):
    forbid_series(monkeypatch, "evolution")
    bm = make_boundary_matrix(w=0.05, theta=0.15, phi=0.3, psi=0.45)
    dom, f = _WINDOW_DOMAIN, _WINDOW_F
    g = StepPacket.box(-1.0, -0.4, 1.0) + StepPacket.box(1.2, 1.7, 0.5)
    evolve(bm, dom, f, 7.5)
    block_matrix_entry(bm, dom, "iplus", "iminus", f, 7.5)
    correlation(bm, dom, f, f, -3.0)
    cesaro_decay(bm, dom, g, g, [2.0, 5.0])
    # the t = inf pictures and their exact norms read no series either
    f_in = f.restrict(hi=0.0)
    out = scatter(bm, dom, f_in)
    out.norm2()
    out.distance2(f_in)
    for sign in ("+", "-"):
        rep = translation_representation(bm, dom, f, sign)
        rep.norm2()
        rep.distance2(rep.translate(0.5))


def test_evolve_cost_follows_reflections(monkeypatch):
    # at w = 0.05 the eps series holds tens of thousands of terms; the window
    # builds about |t| / ell of them per row
    applied = []
    causal = multipliers.causal_terms

    def counting(*args, **kwargs):
        counts, shifts, weights = causal(*args, **kwargs)
        applied.extend(counts)
        return counts, shifts, weights

    monkeypatch.setattr(evolution, "causal_terms", counting)
    bm = make_boundary_matrix(w=0.05, theta=0.15, phi=0.3, psi=0.45)
    dom, f, t = _WINDOW_DOMAIN, _WINDOW_F, 100.0
    res = evolve(bm, dom, f, t)
    width = f.support()[1] - f.support()[0]
    assert 0 < sum(applied) <= 3 * (math.ceil((abs(t) + width) / dom.ell) + 3)


_MIRRORED = ("a_conj_inv", "c_conj_inv", "c_inv_a")


def _scalar_term(bm, dom, kind, n):
    """(base shift, scalar, c_n) of term n of ``kind`` by Python's scalar
    arithmetic: c_n = weight * q**|n| * e(-n psi), or the direct reflection
    (n = -1 of a_inv_c, n = 1 of c_inv_a).  A mirrored kind's scalar and
    base are its partner's, conjugated and negated."""
    w, q, psi, gap = bm.w, bm.q, bm.psi, dom.gap
    a_inv, c_inv = w * complex(e2pi(-bm.phi)), w * complex(e2pi(bm.theta - bm.phi))
    a_inv_c = complex(e2pi(-bm.theta))
    scalar, base = {
        "a_inv": (a_inv, -1.0),
        "a_conj_inv": (a_inv.conjugate(), 1.0),
        "c_inv": (c_inv, gap),
        "c_conj_inv": (c_inv.conjugate(), -gap),
        "m_squared_inv": (1.0 + 0j, 0.0),
        "a_inv_c": (a_inv_c, -(gap + 1.0)),
        "c_inv_a": (a_inv_c.conjugate(), gap + 1.0),
    }[kind]
    reflection = -q * complex(e2pi(psi))
    if (kind, n) == ("a_inv_c", -1):
        c = reflection
    elif (kind, n) == ("c_inv_a", 1):
        c = reflection.conjugate()
    else:
        c = (w * w if kind in ("a_inv_c", "c_inv_a") else 1.0) * q ** abs(n) * complex(e2pi(-n * psi))
    return base, scalar, c


def _block_terms(monkeypatch, bm, dom, parts, span):
    """Per causal block of one ``_block_rows`` call: (kind, n, shifts,
    weights), the block's lattice indices n read back from its shifts."""
    calls = []
    causal = multipliers.causal_terms

    def spy(*args):
        out = causal(*args)
        calls.append((args[2], out))
        return out

    monkeypatch.setattr(evolution, "causal_terms", spy)
    evolution._block_rows(bm, dom, parts, _COMPONENTS, span)
    monkeypatch.undo()
    ((requests, (counts, shifts, weights)),) = calls
    blocks, end = [], 0
    for (kind, _, _), count in zip(requests, counts):
        terms = slice(end, end + count)
        end = terms.stop
        base = _scalar_term(bm, dom, kind, 0)[0]
        n = np.rint((shifts[terms] - base) / dom.ell).astype(int)
        blocks.append((kind, n, shifts[terms], weights[terms]))
    assert end == len(shifts) == len(weights)
    return blocks


def _assert_scalar_terms(monkeypatch, bm, dom, parts, span):
    """Every block's terms are the scalar loop's, bit for bit; returns the
    features the call covered."""
    seen = set()
    for kind, n, shifts, weights in _block_terms(monkeypatch, bm, dom, parts, span):
        if not len(n):
            continue
        assert np.array_equal(n, np.arange(n[0], n[0] + len(n)))
        want = [(k, *_scalar_term(bm, dom, kind, k)) for k in n.tolist()]
        assert shifts.tobytes() == np.array([b + k * dom.ell for k, b, _, _ in want]).tobytes()
        assert weights.tobytes() == np.array([a * c for _, _, a, c in want], dtype=complex).tobytes()
        seen.add("mirrored" if kind in _MIRRORED else kind)
        if kind == "m_squared_inv" and n[0] < 0 < n[-1]:
            seen.add("two-sided")
        if (kind == "a_inv_c" and n[0] == -1) or (kind == "c_inv_a" and n[-1] == 1):
            seen.add("direct")
    return seen


@st.composite
def block_term_cases(draw):
    """(bm, dom, parts, span): a coupling with w in [0.01, 1] (below it q
    nears 1 and the series grow long), a cell on each component and a span
    with |t| <= 1e4."""
    unit = st.floats(0.0, 1.0)
    psi = draw(st.sampled_from([0.0, 0.25, 0.5]) | unit)
    bm = make_boundary_matrix(w=draw(st.floats(0.01, 1.0)), theta=draw(unit), phi=draw(unit), psi=psi)
    alpha = draw(st.floats(1.2, 3.0))
    dom = make_domain(alpha, alpha + draw(st.floats(0.3, 2.0)))
    parts = []
    for lo, hi in ((-3.0, 0.0), (1.0, alpha), (dom.beta, dom.beta + 3.0)):
        a = draw(st.floats(lo, hi - 1e-3))
        b = draw(st.floats(a + 1e-3, hi))
        parts.append(StepPacket.box(a, b, 1.0, freq=draw(st.sampled_from([0, 1]))))
    t_lo = draw(st.floats(-1e4, 1e4))
    return bm, dom, parts, (t_lo, min(t_lo + draw(st.floats(0.0, 100.0)), 1e4))


@given(block_term_cases())
@settings(max_examples=60, deadline=None)
def test_batched_block_terms_are_scalar_arithmetic(case):
    # every block of one _block_rows call reads its terms from one table,
    # with the bits of the scalar loop: shifts base + n ell, weights
    # scalar * (weight * q**|n| e(-n psi)), or the direct reflection
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_scalar_terms(monkeypatch, *case)


def test_batched_block_terms_cover_every_kind(monkeypatch):
    # near t = 0 the rows hold the mirrored kinds, the two-sided
    # m_squared_inv range across n = 0 and the direct reflection at n = -1
    bm = make_boundary_matrix(w=0.5, theta=0.15, phi=0.3, psi=0.0)
    parts = decompose(_WINDOW_F, _WINDOW_DOMAIN)
    seen = set()
    for span in ((-0.5, 0.5), (2.0, 3.0), (-3.0, -2.0)):
        seen |= _assert_scalar_terms(monkeypatch, bm, _WINDOW_DOMAIN, parts, span)
    assert seen == {"a_inv", "c_inv", "m_squared_inv", "a_inv_c", "mirrored", "two-sided", "direct"}


@pytest.mark.parametrize("t", [1e4, -1e4])
def test_coefficient_table_follows_the_largest_index(monkeypatch, t):
    # one table per evolution, over m = 0 ... max |n| of every block: not
    # the signed span min n ... max n, which far from t = 0 holds both signs
    sizes = []
    table = multipliers._coefficient_table

    def spy(q, psi, size):
        sizes.append(size)
        return table(q, psi, size)

    bm = make_boundary_matrix(w=0.2, theta=0.15, phi=0.3, psi=0.45)
    parts = decompose(_WINDOW_F, _WINDOW_DOMAIN)
    assert all(p.waves for p in parts)
    blocks = _block_terms(monkeypatch, bm, _WINDOW_DOMAIN, parts, (t, t))
    monkeypatch.setattr(multipliers, "_coefficient_table", spy)
    evolve(bm, _WINDOW_DOMAIN, _WINDOW_F, t)
    n = np.concatenate([n for _, n, _, _ in blocks])
    assert sizes == [np.abs(n).max() + 1]
    assert sizes[0] < n.max() - n.min() + 1


def test_evolve_many_contracts():
    dom, f = _WINDOW_DOMAIN, _WINDOW_F  # a frequency-1 cell on each component
    scale = np.sqrt(f.norm2())
    ts = [3.0, -7.0, 0.5, 3.0, 100.0, 0.0]  # unsorted, with a repeat
    for w in (1.0, 0.9, 0.5, 0.2, 0.05):
        bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45)
        got = evolve_many(bm, dom, f, ts)
        assert [r.t for r in got] == ts
        for t, res in zip(ts, got):
            one = evolve(bm, dom, f, t).packet
            assert np.sqrt(res.packet.distance2(one)) <= 1e-14 * scale
        assert got[0].packet.distance2(got[3].packet) == 0.0
    with pytest.raises(ValidationError):
        evolve_many(bm, dom, f, [])


def _evolve_per_time(bm, dom, f, ts):
    """U(t) f on a grid, one t at a time, side by side: the grid's rows,
    shifted and clipped per t (w > 0), or the middle wrap and the half-line
    splice (w = 0)."""
    parts = decompose(f, dom)
    if bm.w == 0.0:
        fm, f0, fp = parts
        phase = -complex(e2pi(bm.psi - bm.theta))
        return [side_by_side([wrap_at(bm, dom, f0, t), splice_at(fm, fp, t, dom.beta, phase)]) for t in ts]
    span = (min(ts), max(ts))
    rows = [(dom.component(d), block_row(bm, dom, parts, d, span=span)) for d in _COMPONENTS]
    rows = [(comp, g) for comp, g in rows if not g.is_empty]
    return [side_by_side([g.translate(t).restrict(*comp) for comp, g in rows]) for t in ts]


def test_grid_sweep_is_one_sweep_per_time():
    # the batched grid gives each t the packet it gets alone, bit for bit
    rng = np.random.default_rng(19)
    grids = ([2.5], [0.0, 0.4, -1.3, 7.25, 0.4, -20.0], list(rng.uniform(-12.0, 12.0, 9)))
    for trial in range(12):
        dom = random_geometry(rng)
        w = (0.0, 1.0, None)[trial % 3]
        bm = random_boundary(rng) if w is None else make_boundary_matrix(
            w=w, theta=rng.uniform(), phi=rng.uniform(), psi=rng.uniform()
        )
        f = sum_packets([
            random_packet(rng, -3.0, -0.1, 2, freqs=(0, 1)),
            random_packet(rng, 1.0, dom.alpha, 2, freqs=(0, 1)),
            random_packet(rng, dom.beta, dom.beta + 3.0, 2, freqs=(0, -1)),
        ])
        for ts in grids:
            got = evolve_many(bm, dom, f, ts)
            for res, want in zip(got, _evolve_per_time(bm, dom, f, ts)):
                assert_same_packet(res.packet, want)
    # the one-interval model shares the splice; width 0 is the point model
    f = random_packet(rng, -3.0, 3.0, 4, freqs=(0, 2))
    for width in (0.0, 0.75):
        left, right = f.restrict(hi=0.0), f.restrict(lo=width)
        for t in (-2.5, 0.0, 1.25):
            got = batch.merge_batch(evolution._splice(left, right, [t], width, complex(e2pi(-0.3))))
            assert_same_packet(got.packets()[0], splice_at(left, right, t, width, complex(e2pi(-0.3))))


def _stack(waves, j, freqs):
    """Cell j of a packet's ``waves`` as the bytes of its value for each of
    ``freqs`` (0.0 where it lacks one), -0.0 read as 0.0."""
    return [(waves[n][j] + 0.0).tobytes() if n in waves else bytes(16) for n in freqs]


def _assert_merged(out, pieces):
    """out is the canonical sum of pieces that lie side by side, with no
    sweep: each cell of out is a run of consecutive cells of the pieces with
    the first one's values (bit for bit); its lo is the first one's, or the
    previous cell's hi across a gap no wider than the edge rule; its hi is
    the last one's, or the next one's lo across an overlap no wider than the
    edge rule; and out is canonical: sorted, every cell and every nonzero gap
    wider than the edge rule, no two contiguous cells with agreeing stacks,
    no -0.0."""
    ref_lo, ref_hi, ref_waves = cells_in_order(pieces)
    end = np.minimum(ref_hi, np.append(ref_lo[1:], np.inf))
    assert np.all(~_wider(ref_hi - end, end))
    freqs = sorted(set(ref_waves) | set(out.waves))
    i = 0
    for j in range(out.n_cells):
        start = ref_lo[i]
        assert start == out.lo[j] or (
            j and out.lo[j] == out.hi[j - 1] and not _wider(start - out.hi[j - 1], start)
        )
        assert _stack(out.waves, j, freqs) == _stack(ref_waves, i, freqs)
        while end[i] != out.hi[j]:
            i += 1
        i += 1
    assert i == len(ref_lo)
    lo, hi = out.lo, out.hi
    assert np.all(_wider(hi - lo, lo))
    gap = lo[1:] - hi[:-1]
    assert np.all((gap == 0.0) | ((gap > 0.0) & _wider(gap, lo[1:])))
    touching = gap == 0.0
    differs = np.zeros(len(gap), dtype=bool)
    for v in out.waves.values():
        scale = np.maximum(1.0, np.maximum(np.abs(v[:-1]), np.abs(v[1:])))
        differs |= np.abs(v[:-1] - v[1:]) > VALUE_TOL * scale
    assert np.all(differs | ~touching)
    values = [x for v in out.waves.values() for x in (v.real, v.imag)]
    for x in (lo, hi, *values):
        assert not np.any(np.signbit(x) & (x == 0.0))


@st.composite
def near_gap_cases(draw):
    """(w, f, t), |t| <= 1e3: f holds a pair of cells on the half-line that
    t moves away from the obstacles, whose gap is within 2x of the edge rule
    at the pair's position after the shift (and far wider before it)."""
    t = draw(st.floats(-1e3, 1e3, allow_nan=False).filter(lambda x: abs(x) >= 1.0))
    w = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    value = st.sampled_from([1.0, 1.0, -0.5j, 0.3 + 0.2j])
    edge = draw(st.floats(1.5, 2.5)) * (-1.0 if t < 0 else 1.0) + (0.0 if t < 0 else _NEAR_DOMAIN.beta)
    gap = draw(st.floats(0.5, 2.0)) * EDGE_TOL * abs(edge + t)
    freq = draw(st.sampled_from([0, 1]))
    pair = StepPacket([edge - 0.5, edge + gap], [edge, edge + 0.6], {freq: [draw(value), draw(value)]})
    # touching cells; or cells filling (1, alpha), whose wrap brings the
    # spill's end within an ulp of the start of the part that stays
    cuts = draw(st.sampled_from([(1.2, 1.5, 1.8), (1.0, 1.5, 2.0)]))
    middle = StepPacket(cuts[:2], cuts[1:], {0: [draw(value), draw(value)]})
    return w, pair + middle, t


_NEAR_DOMAIN = make_domain(2.0, 10.0 / 3.0)


@given(near_gap_cases())
@example(
    # a run of two cells joins, the next cell differs from the run's last
    # cell by 1.05e-14 but from its kept first values by only 5.7e-15
    (
        0.3,
        StepPacket(
            [1.0, 4.478648400940121, 4.9786484009469705],
            [2.0, 4.978648400940121, 5.5786484009401205],
            {0: [1, 0.3 + 0.2j, 0.3 + 0.2j]},
        ),
        1000.0,
    )
)
@settings(max_examples=60, deadline=None)
def test_evolve_merges_its_rows_into_canonical_cells(case):
    # each t's packet is its shifted, clipped rows side by side, cell for
    # cell, canonical also where a shift brings a gap within the edge rule;
    # so is the compressed semigroup's, from its inside and wrapped spill
    w, f, t = case
    dom = _NEAR_DOMAIN
    bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45)
    out = evolve(bm, dom, f, t).packet
    fm, f0, fp = decompose(f, dom)
    if w == 0.0:
        phase = -complex(e2pi(bm.psi - bm.theta))
        pieces = evolution._wrap_middle(bm, dom, f0, [t]) + evolution._splice(fm, fp, [t], dom.beta, phase)
        pieces = [g.packets()[0] for g in pieces]
    else:
        rows = evolution._block_rows(bm, dom, (fm, f0, fp), _COMPONENTS, (t, t)).packets()
        pieces = [g.translate(t).restrict(*dom.component(d)) for d, g in zip(_COMPONENTS, rows)]
        wrap = [g.packets()[0] for g in evolution._wrap_middle(bm, dom, f0, [abs(t)])]
        _assert_merged(compress_evolve(bm, dom, f0, abs(t)).packet, wrap)
    _assert_merged(out, pieces)


def test_decoupled_evolve_closes_an_overlap_the_constructor_accepts():
    # the untrusted constructor accepts cells that overlap by less than
    # EDGE_TOL; evolved at w = 0, they close onto the leftmost edge, as the
    # sweeps of the coupled evolution and of the compressed semigroup close
    # them
    f = StepPacket([1.2, 1.5 - 5e-15], [1.5, 1.8], {0: [1.0, 2.0]})
    bms = [make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45) for w in (0.0, 0.5)]
    got = [evolve(bm, _NEAR_DOMAIN, f, 0.1).packet for bm in bms]
    got.append(compress_evolve(bms[1], _NEAR_DOMAIN, f, 0.1).packet)
    for g in got:
        assert_same_packet(g, got[1])
    assert got[0].hi[0] == got[0].lo[1] == 1.5 - 5e-15 + 0.1
    assert np.allclose([*got[0].lo, *got[0].hi], [1.3, 1.6, 1.6, 1.9], rtol=0.0, atol=1e-14)


def test_coupled_evolve_sweeps_once(monkeypatch):
    # the three rows are built in one sweep and merged with none, for one t
    # or a grid
    swept = count_sweeps(monkeypatch)
    bm = make_boundary_matrix(w=0.5, theta=0.15, phi=0.3, psi=0.45)
    for ts in ([7.5], [0.0, -3.0, 20.0, 7.5]):
        swept.clear()
        evolve_many(bm, _WINDOW_DOMAIN, _WINDOW_F, ts)
        assert swept == [3]


def test_side_by_side_evolutions_never_sweep(monkeypatch):
    # the w = 0 evolution, the compressed semigroup and the point and
    # interval models only move cells past each other: their pieces merge
    # with no sweep, also where the wrap spills and where mass crosses a cut
    swept = count_sweeps(monkeypatch)
    dom, f = _WINDOW_DOMAIN, _WINDOW_F
    bm = make_boundary_matrix(w=0.0, theta=0.15, phi=0.3, psi=0.45)
    assert len(evolve_many(bm, dom, f, [0.3, -3.0, 20.0, 7.5])) == 4
    assert swept == []
    coupled = make_boundary_matrix(w=0.5, theta=0.15, phi=0.3, psi=0.45)
    moved = compress_evolve_many(coupled, dom, f.restrict(1.0, dom.alpha), [0.0, 0.3, 1.25, 12.5])
    assert moved[1].packet.n_cells == 3  # at t = 0.3 the cell on (1.6, 1.95) spills
    assert swept == []
    for model in (OnePointModel(theta=0.2), OneIntervalModel(theta=0.2, alpha=0.75)):
        assert not degenerate_evolve(model, f.restrict(hi=0.0), 1.25).restrict(lo=0.0).is_empty
    assert swept == []


def test_rows_of_one_sweep_are_each_rows_own_sweep():
    # the batched pre-shift sweep of all three rows gives each row the packet
    # of its own sweep, bit for bit; a part with cells but no frequency (its
    # values all vanish) adds nothing, not even an edge
    rng = np.random.default_rng(23)
    for trial in range(12):
        dom, bm = random_geometry(rng), random_boundary(rng)
        parts = [
            random_packet(rng, -3.0, -0.1, 3, freqs=(0, 1, -2)),
            random_packet(rng, 1.0, dom.alpha, 2, freqs=(0, 1)),
            random_packet(rng, dom.beta, dom.beta + 3.0, 3, freqs=(0, -1)),
        ]
        t_lo = rng.uniform(-15.0, 5.0)
        span = (t_lo, t_lo + rng.uniform(0.0, 20.0))
        rows = evolution._block_rows(bm, dom, parts, _COMPONENTS, span).packets()
        for d, got in zip(_COMPONENTS, rows):
            assert_same_packet(got, block_row(bm, dom, parts, d, span=span))
        src = trial % 3
        muted, dropped = list(parts), list(parts)
        muted[src] = StepPacket(parts[src].lo, parts[src].hi, {2: np.zeros(parts[src].n_cells)})
        dropped[src] = StepPacket.zero()
        assert muted[src].n_cells and not muted[src].waves
        rows = evolution._block_rows(bm, dom, muted, _COMPONENTS, span).packets()
        for d, got in zip(_COMPONENTS, rows):
            assert_same_packet(got, block_row(bm, dom, dropped, d, span=span))
    with pytest.raises(ValidationError):
        block_row(bm, dom, parts, "nowhere", span=(0.0, 1.0))
    with pytest.raises(ValidationError):
        evolution._block_rows(bm, dom, parts, ("iplus", "nowhere"), (0.0, 1.0))


def test_cli_evolve_builds_each_row_once(monkeypatch, tmp_path):
    # the grid of example_5_9 holds 13 times; it builds the causal series of
    # one single-time evolve, not 13 sets
    built = []
    causal = multipliers.causal_terms

    def counting(bm, domain, requests):
        built.extend(requests)
        return causal(bm, domain, requests)

    monkeypatch.setattr(evolution, "causal_terms", counting)
    sc = bundled_scenario("example_5_9")
    assert sc.grid("time_grid").size > 1
    evolve(sc.bm, sc.domain, sc.packet("f"), 1.5)
    once = len(built)
    assert once > 0
    built.clear()
    assert cli.main(["evolve", "--scenario", "example_5_9", "--out", str(tmp_path)]) == 0
    assert len(built) == once


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_time_rejected(bad):
    bm = make_boundary_matrix(w=0.6)
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(-1.0, -0.5, 1.0)
    with pytest.raises(ValidationError):
        evolve(bm, dom, f, bad)
    with pytest.raises(ValidationError):
        evolve_many(bm, dom, f, [1.0, bad])
    with pytest.raises(ValidationError):
        block_matrix_entry(bm, dom, "iplus", "iminus", f, bad)
    with pytest.raises(ValidationError):
        correlation(bm, dom, f, f, bad)
    with pytest.raises(ValidationError):
        cesaro_decay(bm, dom, f, f, [1.0, bad])
    with pytest.raises(ValidationError):
        evolve(make_boundary_matrix(w=0.0), dom, f, bad)


def _cesaro_panel_simpson(bm, dom, f, g, horizons):
    # the earlier route: evolve the rows to every crossing time and panel
    # midpoint by translate, restrict and inner product, then Simpson per
    # panel (exact on the piecewise quadratic |corr|^2)
    reach = max(horizons)
    g_parts = decompose(g, dom)
    rows, f_parts = {}, {}
    for d in _COMPONENTS:
        lo, hi = dom.component(d)
        rows[d] = evolution.block_row(bm, dom, g_parts, d, span=(-reach, reach))
        f_parts[d] = f.restrict(lo, hi)

    def corr(t):
        total = 0.0 + 0.0j
        for d in _COMPONENTS:
            if rows[d].is_empty or f_parts[d].is_empty:
                continue
            lo, hi = dom.component(d)
            total += f_parts[d].inner(rows[d].translate(t).restrict(lo, hi))
        return total

    crossing = [np.empty(0)]
    for d in _COMPONENTS:
        if rows[d].is_empty:
            continue
        targets = [v for v in dom.component(d) if np.isfinite(v)]
        if not f_parts[d].is_empty:
            targets.extend(f_parts[d].breakpoints().tolist())
        crossing.append(np.subtract.outer(targets, rows[d].breakpoints()).ravel())
    crossing = np.unique(np.concatenate(crossing))
    out = []
    for T in horizons:
        inside = crossing[(crossing > -T) & (crossing < T)]
        pts = np.concatenate(([-T], inside, [T])).tolist()
        ends = [abs(corr(t)) ** 2 for t in pts]
        total = 0.0
        for a, b, ya, yb in zip(pts[:-1], pts[1:], ends[:-1], ends[1:]):
            ym = abs(corr(0.5 * (a + b))) ** 2
            total += (b - a) / 6.0 * (ya + 4.0 * ym + yb)
        out.append(total / (2.0 * T))
    return np.array(out)


# frequency-0 packets with cells on I_minus, I_zero and I_plus of
# alpha = 2, beta = 10/3
_CESARO_F = (
    StepPacket.box(-2.3, -1.4, 0.8 - 0.3j)
    + StepPacket.box(-0.9, -0.2, 1.2j)
    + StepPacket.box(1.1, 1.45, -0.6 + 0.5j)
    + StepPacket.box(3.5, 4.2, 0.4 - 1.1j)
)
_CESARO_G = (
    StepPacket.box(-1.7, -0.6, -0.5 + 0.9j)
    + StepPacket.box(1.25, 1.8, 1.1)
    + StepPacket.box(3.9, 5.0, 0.7 + 0.4j)
)


@pytest.mark.parametrize("w", [1.0, 0.9, 0.5, 0.05])
@pytest.mark.parametrize(
    "horizons", [[4.0, 8.0], [50.0, 10.0], [200.0]], ids=["T4_8", "T50_10", "T200"]
)
def test_cesaro_matches_panel_simpson(w, horizons):
    bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45)
    dom = _WINDOW_DOMAIN
    got = np.atleast_1d(cesaro_decay(bm, dom, _CESARO_F, _CESARO_G, horizons))
    ref = _cesaro_panel_simpson(bm, dom, _CESARO_F, _CESARO_G, horizons)
    assert np.all(ref > 0.0)
    assert np.all(np.abs(got - ref) <= 1e-12 * ref)


def test_cesaro_contracts():
    bm = make_boundary_matrix(w=0.6, theta=0.15, phi=0.3, psi=0.45)
    dom = _WINDOW_DOMAIN
    single = cesaro_decay(bm, dom, _CESARO_F, _CESARO_G, [6.0])
    assert type(single) is float
    many = cesaro_decay(bm, dom, _CESARO_F, _CESARO_G, [9.0, 3.0, 6.0])
    assert many.shape == (3,) and many[2] == pytest.approx(single, rel=1e-12)
    ordered = cesaro_decay(bm, dom, _CESARO_F, _CESARO_G, [3.0, 6.0, 9.0])
    assert np.allclose(many, ordered[[2, 0, 1]], rtol=1e-12, atol=0.0)
    # f on I_minus, g on I_plus: U(t) g reaches I_minus only for t < -(5 - beta),
    # so no pair of cells meets for |t| <= 1
    f = StepPacket.box(-0.9, -0.2, 1.0)
    g = StepPacket.box(5.0, 5.5, 1.0 - 1.0j)
    assert cesaro_decay(bm, dom, f, g, [1.0]) == 0.0
    assert np.array_equal(cesaro_decay(bm, dom, f, g, [1.0, 0.5]), [0.0, 0.0])
    # the longer horizon meets the rows; the shorter one still reads 0
    avgs = cesaro_decay(bm, dom, f, g, [10.0, 1.0])
    assert avgs[0] > 0.0 and avgs[1] == 0.0
    assert cesaro_decay(bm, dom, StepPacket.zero(), g, [2.0]) == 0.0
    assert cesaro_decay(bm, dom, f, StepPacket.zero(), [2.0]) == 0.0
    with pytest.raises(ValidationError):
        cesaro_decay(bm, dom, StepPacket.box(-1.0, -0.5, 1.0, freq=1), g, [1.0])
    with pytest.raises(ValidationError):
        cesaro_decay(bm, dom, f, StepPacket.box(5.0, 5.5, 1.0, freq=-2), [1.0])
    for bad in ([0.0], [-2.0], [1.0, np.inf], [np.nan], []):
        with pytest.raises(ValidationError):
            cesaro_decay(bm, dom, f, g, bad)
