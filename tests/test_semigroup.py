"""Compressed (middle-interval) contraction semigroup and its resolvents."""

import numpy as np
import pytest

from twogap import evolution, multipliers
from twogap.domain import make_boundary_matrix, make_domain
from twogap.errors import (
    DegenerateRegime,
    HalfPlaneViolation,
    NegativeTime,
    SupportViolation,
    ValidationError,
)
from twogap.evolution import block_matrix_entry
from twogap.packets import StepPacket
from twogap.semigroup import (
    compress_evolve,
    compressed_resolvent_profile,
    norm_decay_profile,
    parseval_bound_check,
    resolvent_comparison,
    semigroup_kernel_apply,
    shannon_coeffs,
    shannon_interpolate,
    spatial_resolvent,
    spatial_semigroup,
)

from conftest import random_boundary, random_geometry


def mid_packet(dom, parts=((0.15, 0.55, 1.0), (0.6, 0.9, -0.5 + 0.25j))):
    """A packet inside the middle interval, given in (0,1) fractions."""
    lo, hi = 1.0, dom.alpha
    out = StepPacket.zero()
    for a, b, v in parts:
        out = out + StepPacket.box(lo + a * (hi - lo), lo + b * (hi - lo), v)
    return out


def test_time_zero_is_identity():
    rng = np.random.default_rng(90)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    f = mid_packet(dom)
    assert compress_evolve(bm, dom, f, 0.0).packet.distance2(f) < 1e-24


def test_semigroup_law():
    rng = np.random.default_rng(91)
    for _ in range(5):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        f = mid_packet(dom)
        for s, t in ((0.2, 0.5), (0.7, 0.7), (0.05, 1.3)):
            two = compress_evolve(bm, dom, compress_evolve(bm, dom, f, t).packet, s).packet
            one = compress_evolve(bm, dom, f, s + t).packet
            assert two.distance2(one) < 1e-18


def test_contraction_monotone():
    rng = np.random.default_rng(92)
    for _ in range(5):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        f = mid_packet(dom)
        norms = [
            compress_evolve(bm, dom, f, t).packet.norm2()
            for t in np.linspace(0.0, 2.5 * dom.ell, 12)
        ]
        assert norms[0] <= f.norm2() + 1e-12
        for a, b in zip(norms[:-1], norms[1:]):
            assert b <= a + 1e-12


def test_transparent_profile_is_linear():
    prof = norm_decay_profile(make_boundary_matrix(w=1.0), n=0, t_grid=[0.0, 0.3, 0.8, 1.0, 1.7])
    assert np.max(np.abs(prof.engine - prof.reference)) < 1e-14
    assert np.max(np.abs(prof.oracle - prof.reference)) < 1e-8


def test_profile_engine_vs_oracle():
    # times just off the lattice probe the jump of the oracle's lattice sums
    t_grid = np.array([0.0, 0.35, 0.7, 1.0, 1.0 + 1e-12, 1.6, 2.0 - 1e-13, 3.0 + 5e-11])
    k = np.floor(t_grid)
    r = t_grid - k
    for w, psi in ((0.8, 0.0), (0.5, 0.3), (0.65, 0.8), (0.2, 0.25), (0.1, 0.3)):
        bm = make_boundary_matrix(w=w, theta=0.2, phi=0.1, psi=psi)
        prof = norm_decay_profile(bm, n=1, t_grid=t_grid)
        assert np.max(np.abs(prof.engine - prof.oracle)) < 1e-8
        # closed form with t = k + r: ||Z(t) e_n||^2 = q^2k (1 - r) + q^(2k+2) r
        want = bm.q ** (2 * k) * (1.0 - r) + bm.q ** (2 * k + 2) * r
        assert np.max(np.abs(prof.engine - want)) < 1e-13
        assert np.max(np.abs(prof.oracle - want)) < 1e-12


def test_compressed_semigroup_is_the_density_block():
    # compress_evolve reads no series; the (izero, izero) block of U(t),
    # which applies the density series, must still agree with it
    for alpha, beta in ((2.0, 3.0), (2.25, 3.75), (3.5, 4.0)):
        dom = make_domain(alpha, beta)
        f = mid_packet(dom) + StepPacket.box(
            1.0 + 0.3 * dom.ell, 1.0 + 0.8 * dom.ell, 0.4 - 0.3j, freq=2
        )
        scale = np.sqrt(f.norm2())
        for w in (1.0, 0.9, 0.5, 0.2):
            bm = make_boundary_matrix(w=w, theta=0.1, phi=0.35, psi=0.3)
            for t in (0.0, 0.3, 2.7, 12.0):
                got = compress_evolve(bm, dom, f, t)
                want = block_matrix_entry(bm, dom, "izero", "izero", f, t)
                assert got.truncation == 0.0
                assert np.sqrt(got.packet.distance2(want)) <= 1e-13 * scale


def test_compressed_semigroup_reads_no_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compressed semigroup built a multiplier series")

    # patch the engine's own binding too: evolution imports the name
    monkeypatch.setattr(multipliers, "make_multiplier", refuse)
    monkeypatch.setattr(evolution, "make_multiplier", refuse)
    bm = make_boundary_matrix(w=0.05, theta=0.2, phi=0.1, psi=0.3)
    dom = make_domain(2.0, 3.0)
    f = mid_packet(dom)
    compress_evolve(bm, dom, f, 7.5)
    norm_decay_profile(bm, 1, [0.0, 2.5])
    parseval_bound_check(bm, dom, f, t=0.4)
    # the Laplace route reads the density row on its causal window only
    compressed_resolvent_profile(bm, dom, 1.0 + 0.5j, f, [1.2, 1.9])


def test_kernel_route_matches_engine():
    dom = make_domain(2.0, 3.0)
    lam = np.array([-1.2, 0.3, 1.0, 2.0, 3.7, 5.0])
    f = StepPacket.box(1.1, 1.7, 1.0) + StepPacket.box(1.75, 1.95, 0.5j)
    for w, psi in ((1.0, 0.25), (0.8, 0.25), (0.5, 0.25), (0.2, 0.25), (0.1, 0.3)):
        bm = make_boundary_matrix(w=w, theta=0.15, phi=0.4, psi=psi)
        for t in (0.0, 0.4, 1.3):
            oracle = semigroup_kernel_apply(bm, f, t, lam)
            engine = compress_evolve(bm, dom, f, t).packet.transform(lam)
            assert np.max(np.abs(oracle.values - engine)) < 1e-8


def test_kernel_route_oscillatory_packet():
    dom = make_domain(2.0, 3.0)
    bm = make_boundary_matrix(w=0.7, psi=0.5)
    f = StepPacket.box(1.0, 2.0, 1.0, freq=3)
    lam = np.array([2.6, 3.0, 3.4])
    oracle = semigroup_kernel_apply(bm, f, 0.55, lam)
    engine = compress_evolve(bm, dom, f, 0.55).packet.transform(lam)
    assert np.max(np.abs(oracle.values - engine)) < 1e-8


def test_shannon_interpolation():
    f = StepPacket.box(1.2, 1.5, 1.0) + StepPacket.box(1.5, 1.9, 0.25 - 1.0j)
    co = shannon_coeffs(f, -60, 61)
    lam = np.linspace(-2.5, 2.5, 41)
    got = shannon_interpolate(co, lam)
    want = f.transform(lam)
    # Cauchy-Schwarz: interpolation error is bounded by the root tail mass
    assert np.max(np.abs(got - want)) <= np.sqrt(co.tail_estimate) + 1e-12
    assert np.max(np.abs(got - want)) < 1e-3


def test_shannon_validation():
    with pytest.raises(ValidationError):
        shannon_coeffs(StepPacket.zero(), 0, 4)
    with pytest.raises(ValidationError):
        shannon_coeffs(StepPacket.box(0.0, 1.5, 1.0), 0, 4)


def test_parseval_bound():
    rng = np.random.default_rng(93)
    for _ in range(5):
        bm = random_boundary(rng)
        dom = make_domain(2.0, 3.0)
        f = StepPacket.box(1.1, 1.9, 1.0)
        partial, bound = parseval_bound_check(bm, dom, f, t=0.4)
        assert partial <= bound
        assert bound == pytest.approx(4.0 / bm.w**2 * f.norm2())


def test_spatial_semigroup_nilpotent():
    dom = make_domain(2.4, 3.0)
    f = mid_packet(dom)
    assert spatial_semigroup(dom, f, 2.0 * dom.ell).is_empty
    assert spatial_semigroup(dom, f, 0.0).distance2(f) == 0.0
    with pytest.raises(NegativeTime):
        spatial_semigroup(dom, f, -0.1)


def test_spatial_resolvent_closed_form():
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(1.1, 1.6, 1.0 - 0.5j) + StepPacket.box(1.6, 1.9, 0.3, freq=1)
    lam = 1.7 + 0.4j
    xs = np.array([1.05, 1.3, 1.55, 1.72, 1.97])
    got = spatial_resolvent(dom, lam, f, xs).values
    for k, x in enumerate(xs):
        # integrate cell by cell so the midpoint rule never straddles a jump
        brute = 0.0 + 0.0j
        for u, v, _ in f.cells():
            a, b = u, min(v, x)
            if b <= a:
                continue
            edges = np.linspace(a, b, 20001)
            mids = 0.5 * (edges[:-1] + edges[1:])
            h = edges[1] - edges[0]
            brute += np.sum(np.exp(-lam * (x - mids)) * f.sample(mids)) * h
        assert abs(got[k] - brute) < 1e-8
    with pytest.raises(HalfPlaneViolation):
        spatial_resolvent(dom, -0.5, f, xs)


def test_resolvent_three_routes():
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(1.15, 1.65, 1.0)
    xs = np.linspace(1.01, 1.99, 25)
    lam = 0.9 + 0.2j
    for w in (1.0, 0.8, 0.3):
        bm = make_boundary_matrix(w=w, psi=0.2)
        rep = resolvent_comparison(bm, dom, lam, f, xs)
        assert rep["laplace_vs_closed"] < 1e-8
        if w == 1.0:
            # transparent case: compression is the plain one-interval
            # semigroup and m(0)^2 = 1, so the rescaled route coincides
            assert rep["m0_squared"] == pytest.approx(1.0, abs=1e-14)
            assert rep["rescaled_discrepancy"] < 1e-10
        else:
            assert rep["rescaled_discrepancy"] > 1e-3  # genuinely different


def test_resolvent_norm_bound():
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(1.2, 1.8, 1.0)
    xs = np.linspace(1.0, 2.0, 2001)
    h = xs[1] - xs[0]
    for lam in (0.5, 1.0 + 1.5j, 3.0):
        vals = resolvent_comparison(make_boundary_matrix(w=0.7), dom, lam, f, xs)["laplace"]
        norm = np.sqrt(np.sum(np.abs(vals) ** 2) * h)
        assert norm <= np.sqrt(f.norm2()) / complex(lam).real + 1e-6


def test_error_paths():
    dom = make_domain(2.0, 3.0)
    bm = make_boundary_matrix(w=0.7)
    dec = make_boundary_matrix(w=0.0)
    f = StepPacket.box(1.2, 1.8, 1.0)
    stray = StepPacket.box(-1.0, -0.5, 1.0)
    with pytest.raises(DegenerateRegime):
        compress_evolve(dec, dom, f, 0.5)
    with pytest.raises(NegativeTime):
        compress_evolve(bm, dom, f, -0.5)
    with pytest.raises(SupportViolation):
        compress_evolve(bm, dom, stray, 0.5)
    with pytest.raises(NegativeTime):
        semigroup_kernel_apply(bm, f, -1.0, [0.0])
    with pytest.raises(ValidationError):
        semigroup_kernel_apply(bm, f, 1.0, [0.0], interval=(1.0, 2.5))
    with pytest.raises(SupportViolation):
        semigroup_kernel_apply(bm, stray, 1.0, [0.0])
    with pytest.raises(HalfPlaneViolation):
        resolvent_comparison(bm, dom, -1.0 + 1j, f, [1.5])
    with pytest.raises(SupportViolation):
        resolvent_comparison(bm, dom, 1.0, stray, [1.5])
    with pytest.raises(DegenerateRegime):
        norm_decay_profile(dec, 0, [0.0, 0.5])
    with pytest.raises(NegativeTime):
        norm_decay_profile(bm, 0, [-0.5])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_time_rejected(bad):
    bm = make_boundary_matrix(w=0.6)
    dom = make_domain(2.0, 3.0)
    f = mid_packet(dom)
    with pytest.raises(ValidationError):
        compress_evolve(bm, dom, f, bad)
    with pytest.raises(ValidationError):
        norm_decay_profile(bm, 0, [0.5, bad])
    with pytest.raises(ValidationError):
        semigroup_kernel_apply(bm, f, bad, [0.0, 1.0])
    with pytest.raises(ValidationError):
        parseval_bound_check(bm, dom, f, bad)
    with pytest.raises(ValidationError):
        spatial_semigroup(dom, f, bad)
