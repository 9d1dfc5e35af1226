"""Unitary evolution, scattering action, translation representations."""

import math

import numpy as np
import pytest

from twogap import evolution, multipliers
from twogap.domain import e2pi, make_boundary_matrix, make_domain
from twogap.errors import (
    DegenerateRegime,
    EmptySupport,
    NotDecoupled,
    SupportViolation,
    ValidationError,
)
from twogap.evolution import (
    block_matrix_entry,
    cesaro_decay,
    correlation,
    decompose,
    evolve,
    evolve_decoupled,
    scatter,
    translation_representation,
)
from twogap.multipliers import BLOCK_KIND, apply_multiplier, make_multiplier
from twogap.packets import StepPacket, sum_packets

from conftest import random_boundary, random_geometry, random_packet


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


def test_decoupled_wrap_phase():
    bm = make_boundary_matrix(w=0.0, theta=0.125, psi=0.25)
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(1.2, 1.8, 1.0 - 0.5j)
    one_wrap = evolve_decoupled(bm, dom, f, dom.ell).packet
    assert one_wrap.distance2(f.scale(e2pi(-bm.psi))) < 1e-28
    # partial wrap conserves mass and stays inside the middle interval
    part = evolve_decoupled(bm, dom, f, 0.7).packet
    assert abs(part.norm2() - f.norm2()) < 1e-13
    assert part.support()[0] >= 1.0 and part.support()[1] <= dom.alpha


def test_decoupled_splice_phase():
    bm = make_boundary_matrix(w=0.0, theta=0.125, psi=0.25)
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(-0.5, 0.0, 1.0)
    g = evolve_decoupled(bm, dom, f, 1.0).packet
    want = f.translate(dom.beta + 1.0).scale(-e2pi(bm.psi - bm.theta))
    assert g.distance2(want) < 1e-28
    # round trip is exact
    back = evolve_decoupled(bm, dom, g, -1.0).packet
    assert back.distance2(f) < 1e-28


def test_decoupled_no_mixing():
    bm = make_boundary_matrix(w=0.0, theta=0.4, psi=0.7)
    dom = make_domain(2.5, 4.0)
    f_mid = StepPacket.box(1.3, 2.2, 1.0)
    f_out = StepPacket.box(-2.0, -1.0, 1.0) + StepPacket.box(4.5, 5.0, 0.5j)
    for t in (0.9, 3.7, -2.1):
        gm = evolve_decoupled(bm, dom, f_mid, t).packet
        go = evolve_decoupled(bm, dom, f_out, t).packet
        assert gm.restrict(hi=1.0).is_empty and gm.restrict(lo=dom.alpha).is_empty
        assert go.restrict(1.0, dom.alpha).is_empty
        assert abs(gm.inner(go)) == 0.0


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


def test_error_paths():
    dom = make_domain(2.0, 3.0)
    bm = make_boundary_matrix(w=0.6)
    dec = make_boundary_matrix(w=0.0)
    f = StepPacket.box(-1.0, -0.5, 1.0)
    bad = StepPacket.box(0.2, 0.8, 1.0)  # sits on a removed interval
    with pytest.raises(SupportViolation):
        decompose(bad, dom)
    with pytest.raises(DegenerateRegime):
        evolve(dec, dom, f, 1.0)
    with pytest.raises(DegenerateRegime):
        scatter(dec, dom, f)
    with pytest.raises(NotDecoupled):
        evolve_decoupled(bm, dom, f, 1.0)
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
        for t in (0.0, 0.5, 3.0, 20.0, -7.0, 100.0):
            ref = sum_packets(
                [rows[d].translate(t).restrict(*dom.component(d)) for d in _COMPONENTS]
            )
            res = evolve(bm, dom, f, t)
            assert res.truncation == 0.0
            assert np.sqrt(res.packet.distance2(ref)) <= 1e-14 * scale + budget


def test_evolution_reads_no_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evolution built a multiplier series")

    # patch the engine's own binding too: evolution imports the name
    monkeypatch.setattr(multipliers, "make_multiplier", refuse)
    monkeypatch.setattr(evolution, "make_multiplier", refuse)
    bm = make_boundary_matrix(w=0.05, theta=0.15, phi=0.3, psi=0.45)
    dom, f = _WINDOW_DOMAIN, _WINDOW_F
    g = StepPacket.box(-1.0, -0.4, 1.0) + StepPacket.box(1.2, 1.7, 0.5)
    evolve(bm, dom, f, 7.5)
    block_matrix_entry(bm, dom, "iplus", "iminus", f, 7.5)
    correlation(bm, dom, f, f, -3.0)
    cesaro_decay(bm, dom, g, g, [2.0, 5.0])


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_time_rejected(bad):
    bm = make_boundary_matrix(w=0.6)
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(-1.0, -0.5, 1.0)
    with pytest.raises(ValidationError):
        evolve(bm, dom, f, bad)
    with pytest.raises(ValidationError):
        block_matrix_entry(bm, dom, "iplus", "iminus", f, bad)
    with pytest.raises(ValidationError):
        correlation(bm, dom, f, f, bad)
    with pytest.raises(ValidationError):
        cesaro_decay(bm, dom, f, f, [1.0, bad])
    with pytest.raises(ValidationError):
        evolve_decoupled(make_boundary_matrix(w=0.0), dom, f, bad)
