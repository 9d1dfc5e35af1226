"""Unitary evolution, scattering action, translation representations."""

import math

import numpy as np
import pytest

from twogap import cli, evolution, multipliers
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
from twogap.multipliers import BLOCK_KIND, apply_multiplier, make_multiplier
from twogap.packets import StepPacket, sum_packets
from twogap.scenario import bundled_scenario

from conftest import (
    assert_same_packet,
    forbid_series,
    random_boundary,
    random_geometry,
    random_packet,
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
            assert res.truncation == 0.0
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
    series = make_multiplier(bm, dom, "a_inv_c")
    cut = apply_multiplier(series, f)
    train = scatter(bm, dom, f)
    gap = np.sqrt(train.restrict(*cut.support()).distance2(cut))
    assert gap <= series.tail * scale + 1e-14 * scale
    # as many terms as the series, materialised (its direct reflection is the head)
    same = train.materialize(len(series.coeffs) - 1)
    assert np.sqrt(same.distance2(cut)) <= 1e-14 * scale


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
                if not p.is_empty:
                    m = make_multiplier(bm, dom, BLOCK_KIND[(d, s)], 1e-15)
                    pieces.append(apply_multiplier(m, p))
                    budget += m.tail * np.sqrt(p.norm2())
            rows[d] = sum_packets(pieces)
        ts = (0.0, 0.5, 3.0, 20.0, -7.0, 100.0)
        for t, on_grid in zip(ts, evolve_many(bm, dom, f, ts)):
            ref = sum_packets(
                [rows[d].translate(t).restrict(*dom.component(d)) for d in _COMPONENTS]
            )
            for res in (evolve(bm, dom, f, t), on_grid):
                assert res.truncation == 0.0
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
    # applies about |t| / ell of them per row
    applied = []
    apply = multipliers.apply_multiplier

    def counting(m, packet):
        applied.append(len(m.coeffs))
        return apply(m, packet)

    monkeypatch.setattr(evolution, "apply_multiplier", counting)
    bm = make_boundary_matrix(w=0.05, theta=0.15, phi=0.3, psi=0.45)
    dom, f, t = _WINDOW_DOMAIN, _WINDOW_F, 100.0
    res = evolve(bm, dom, f, t)
    assert res.truncation == 0.0
    width = f.support()[1] - f.support()[0]
    assert 0 < sum(applied) <= 3 * (math.ceil((abs(t) + width) / dom.ell) + 3)


def test_evolve_many_contracts():
    dom, f = _WINDOW_DOMAIN, _WINDOW_F  # a frequency-1 cell on each component
    scale = np.sqrt(f.norm2())
    ts = [3.0, -7.0, 0.5, 3.0, 100.0, 0.0]  # unsorted, with a repeat
    for w in (1.0, 0.9, 0.5, 0.2, 0.05):
        bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45)
        got = evolve_many(bm, dom, f, ts)
        assert [r.t for r in got] == ts
        for t, res in zip(ts, got):
            assert res.truncation == 0.0
            one = evolve(bm, dom, f, t).packet
            assert np.sqrt(res.packet.distance2(one)) <= 1e-14 * scale
        assert got[0].packet.distance2(got[3].packet) == 0.0
    with pytest.raises(ValidationError):
        evolve_many(bm, dom, f, [])


def _evolve_per_time(bm, dom, f, ts):
    """U(t) f on a grid with one sweep per t: the grid's rows, shifted and
    clipped per t and summed (w > 0), or the middle wrap plus the half-line
    splice per t (w = 0)."""
    parts = decompose(f, dom)
    if bm.w == 0.0:
        fm, f0, fp = parts
        halves, phase = fm + fp, -complex(e2pi(bm.psi - bm.theta))
        return [wrap_at(bm, dom, f0, t) + splice_at(halves, t, dom.beta, phase) for t in ts]
    span = (min(ts), max(ts))
    rows = [(dom.component(d), block_row(bm, dom, parts, d, span=span)) for d in _COMPONENTS]
    rows = [(comp, g) for comp, g in rows if not g.is_empty]
    return [sum_packets(g.translate(t).restrict(*comp) for comp, g in rows) for t in ts]


def test_grid_sweep_is_one_sweep_per_time():
    # the batched sweep over a grid gives each t the packet of its own sweep, bit for bit
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
        g = f.restrict(hi=0.0) + f.restrict(lo=width)
        for t in (-2.5, 0.0, 1.25):
            got = evolution._splice(g, [t], width, complex(e2pi(-0.3)))
            assert_same_packet(got.packets()[0], splice_at(g, t, width, complex(e2pi(-0.3))))


def test_cli_evolve_builds_each_row_once(monkeypatch, tmp_path):
    # the grid of example_5_9 holds 13 times; it builds the causal series of
    # one single-time evolve, not 13 sets
    built = []
    causal = multipliers.causal_multiplier

    def counting(*args, **kwargs):
        built.append(args)
        return causal(*args, **kwargs)

    monkeypatch.setattr(evolution, "causal_multiplier", counting)
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
    zero = StepPacket.box(2.5, 3.0, 1.0)  # on the obstacle [alpha, beta]
    assert cesaro_decay(bm, dom, zero, g, [2.0]) == 0.0
    assert cesaro_decay(bm, dom, f, StepPacket.zero(), [2.0]) == 0.0
    with pytest.raises(ValidationError):
        cesaro_decay(bm, dom, StepPacket.box(-1.0, -0.5, 1.0, freq=1), g, [1.0])
    with pytest.raises(ValidationError):
        cesaro_decay(bm, dom, f, StepPacket.box(5.0, 5.5, 1.0, freq=-2), [1.0])
    for bad in ([0.0], [-2.0], [1.0, np.inf], [np.nan], []):
        with pytest.raises(ValidationError):
            cesaro_decay(bm, dom, f, g, bad)
