"""Compressed (middle-interval) contraction semigroup and its resolvents."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogap import quadrature, semigroup
from twogap.domain import e2pi, make_boundary_matrix, make_domain
from twogap.errors import (
    DegenerateRegime,
    HalfPlaneViolation,
    NegativeTime,
    SupportViolation,
    ValidationError,
)
from twogap.evolution import block_matrix_entry, block_row
from twogap.packets import StepPacket
from twogap.semigroup import (
    compress_evolve,
    compress_evolve_many,
    compressed_resolvent_profile,
    norm_decay_profile,
    parseval_bound_check,
    resolvent_comparison,
    semigroup_kernel_apply,
    spatial_resolvent,
)
from twogap.transform import _cell_ends

from conftest import (
    assert_same_packet,
    forbid_series,
    plain_fold_nodes,
    random_boundary,
    random_geometry,
    wrap_at,
)


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
    for w, psi in (
        (0.8, 0.0), (0.5, 0.3), (0.65, 0.8), (0.2, 0.25), (0.1, 0.3), (0.05, 0.3), (0.05, 0.0)
    ):
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
                assert np.sqrt(got.packet.distance2(want)) <= 1e-13 * scale


def test_compress_grid_is_one_wrap_per_time():
    # the batched wrap of the grid gives each t its own wrap, bit for bit
    rng = np.random.default_rng(29)
    ts = [0.0, 0.35, 2.7, 0.35, 12.0, 1e3]
    for trial in range(8):
        dom = random_geometry(rng)
        bm = random_boundary(rng) if trial else make_boundary_matrix(w=1.0, psi=0.3)
        f = mid_packet(dom) + StepPacket.box(
            1.0 + 0.3 * dom.ell, 1.0 + 0.8 * dom.ell, complex(rng.normal(), rng.normal()), freq=2
        )
        got = compress_evolve_many(bm, dom, f, ts)
        assert [r.t for r in got] == ts
        for t, res in zip(ts, got):
            assert_same_packet(res.packet, wrap_at(bm, dom, f, t))
            assert_same_packet(res.packet, compress_evolve(bm, dom, f, t).packet)
    with pytest.raises(NegativeTime):
        compress_evolve_many(bm, dom, f, [1.0, -1e-9, 2.0])
    with pytest.raises(ValidationError):
        compress_evolve_many(bm, dom, f, [])


def test_compressed_semigroup_reads_no_series(monkeypatch):
    forbid_series(monkeypatch, "compressed semigroup")
    bm = make_boundary_matrix(w=0.05, theta=0.2, phi=0.1, psi=0.3)
    dom = make_domain(2.0, 3.0)
    f = mid_packet(dom)
    compress_evolve(bm, dom, f, 7.5)
    norm_decay_profile(bm, 1, [0.0, 2.5])
    parseval_bound_check(bm, dom, f, t=0.4)
    # the Laplace route reads the density row on its causal window only
    compressed_resolvent_profile(bm, dom, 1.0 + 0.5j, f, [1.2, 1.9])


@pytest.mark.parametrize("w", [0.05, 0.01])
@pytest.mark.parametrize("n", [0, 1])
def test_wide_grid_profile_keeps_its_digits(w, n):
    # psi = 0 puts the density spike on the fold's pole; a grid out to
    # t = 700 must read each time as well as a grid of that time alone
    # (one anchor for the whole grid erred by 5.1e-13 and 1.2e-12 here)
    bm = make_boundary_matrix(w, theta=0.15, phi=0.4, psi=0.0)
    prof = norm_decay_profile(bm, n, [0.0, 0.35, 1.3, 4.6, 30.2, 100.5, 700.25])
    assert np.max(np.abs(prof.engine - prof.oracle)) < 1e-13


def test_sparse_profile_reads_the_table_at_its_own_lattice_integers(monkeypatch):
    # t = 0, 10.3 and 1000.6 reach a handful of lattice integers 1000 apart:
    # the phase table holds a row per integer the cells reach, never one per
    # integer of the range between them
    seen = {"nodes": 0, "elements": 0}

    def counted_fold(*args, **kwargs):
        xi, wq = quadrature.fold_nodes(*args, **kwargs)
        seen["nodes"] = len(xi)
        return xi, wq

    def counted_e2pi(x):
        seen["elements"] += np.size(x)
        return e2pi(x)

    monkeypatch.setattr(semigroup, "fold_nodes", counted_fold)
    monkeypatch.setattr(quadrature, "e2pi", counted_e2pi)
    ts = np.array([0.0, 10.3, 1000.6])
    for w in (0.5, 0.05):
        seen.update(nodes=0, elements=0)
        prof = norm_decay_profile(make_boundary_matrix(w, theta=0.15, phi=0.4, psi=0.3), 1, ts)
        assert np.max(np.abs(prof.engine - prof.oracle)) < 1e-12
        # the oracle's points, the two pieces' midpoints, and the ends -1/2, 1/2
        cut = ts % 1.0 - 0.5
        mid = np.concatenate([0.5 * (cut - 0.5), 0.5 * (cut + 0.5)])
        y = (mid - np.tile(ts, 2))[:, None] - np.array([-0.5, 0.5])
        assert 0 < seen["elements"] <= len(np.unique(np.floor(y))) * seen["nodes"]


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


def test_oracles_with_spike_on_pole():
    # psi = 0 puts the density spike on xi = 0, the pole of the lattice sums
    dom = make_domain(2.0, 3.0)
    lam = np.array([-1.2, 0.0, 0.3, 1.0, 3.7])
    f = StepPacket.box(1.1, 1.7, 1.0) + StepPacket.box(1.75, 1.95, 0.5j)
    for w in (0.8, 0.5, 0.2, 0.05):
        bm = make_boundary_matrix(w=w, theta=0.15, phi=0.4, psi=0.0)
        for t in (0.0, 0.4, 1.3):
            oracle = semigroup_kernel_apply(bm, f, t, lam)
            engine = compress_evolve(bm, dom, f, t).packet.transform(lam)
            assert np.max(np.abs(oracle.values - engine)) < 1e-8
        prof = norm_decay_profile(bm, n=1, t_grid=[0.0, 0.35, 1.0, 1.6, 3.0 + 5e-11])
        assert np.max(np.abs(prof.engine - prof.oracle)) < 1e-8


@pytest.mark.parametrize("w", [0.9, 0.5, 0.2])
def test_oracles_match_plain_rule(monkeypatch, w):
    bm = make_boundary_matrix(w=w, theta=0.15, phi=0.4, psi=0.3)
    lam = np.array([-1.2, 0.3, 1.0, 2.0, 3.7])
    f = StepPacket.box(1.1, 1.7, 1.0) + StepPacket.box(1.75, 1.95, 0.5j, freq=1)
    t_grid = [0.0, 0.35, 1.0, 1.6, 3.0 + 5e-11]
    kernel = semigroup_kernel_apply(bm, f, 1.3, lam).values
    oracle = norm_decay_profile(bm, 1, t_grid).oracle
    monkeypatch.setattr(semigroup, "fold_nodes", plain_fold_nodes)
    assert np.max(np.abs(kernel - semigroup_kernel_apply(bm, f, 1.3, lam).values)) < 1e-12
    assert np.max(np.abs(oracle - norm_decay_profile(bm, 1, t_grid).oracle)) < 1e-12


def _lattice_sum(y, a):
    """sum_j e(j y)/(j + a) for non-integer y and a, by its closed form
    (pi/sin(pi a)) exp(i pi a (1 - 2 {y}))."""
    frac = y - np.floor(y)
    return np.pi / np.sin(np.pi * a) * np.exp(1j * np.pi * a * (1.0 - 2.0 * frac))


def _kernel_oracle_loop(bm, f_centered, t, lam):
    """Reference: the kernel oracle with one Python pass per lambda."""
    pos, val, freq = _cell_ends(f_centered)
    xi, wq = semigroup._fold_rule(bm, abs(t) + 2.0)
    res = np.zeros(lam.shape, dtype=complex)
    for p, s, n in zip(pos, val, freq):
        y = 0.5 - t - p
        sign = 2.0 * (y - np.floor(y)) - 1.0
        lsum = _lattice_sum(y, xi - n)
        weighted = wq * s * e2pi(n * p) * e2pi(-xi * (t + p)) / (2j * np.pi**2)
        for k, lk in enumerate(lam):
            if abs(lk - n) > 1e-12:
                e2 = np.exp(1j * np.pi * (lk - xi) * sign)
                bracket = (np.sin(np.pi * (lk - xi)) * lsum + np.pi * e2) / (lk - n)
            else:
                # the numerator vanishes at lambda = n: its secant slope is
                # its derivative at the midpoint, exact to O((lambda - n)^2)
                m = 0.5 * (lk + n)
                e2 = np.exp(1j * np.pi * (m - xi) * sign)
                bracket = np.pi * np.cos(np.pi * (m - xi)) * lsum + 1j * np.pi**2 * sign * e2
            res[k] += np.sum(weighted * bracket)
    return res


def test_kernel_oracle_matches_lambda_loop():
    # lambda = 0 and 1 hit the removable points of the frequency 0 and 1 cells
    lam = np.array([-2.5, 0.0, 0.3, 1.0, 1.0 + 1e-13, 4.2])
    f = (StepPacket.box(1.1, 1.5, 1.0) + StepPacket.box(1.6, 1.9, 0.5j, freq=1)).translate(-1.5)
    for w in (0.9, 0.5, 0.2):
        bm = make_boundary_matrix(w=w, theta=0.15, phi=0.4, psi=0.3)
        want = _kernel_oracle_loop(bm, f, 0.7, lam)
        got = semigroup._kernel_transform_oracle(bm, f, 0.7, lam)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_kernel_oracle_keeps_its_digits_near_poles():
    # at lambda = n + d the bracket's numerator and its denominator lambda - n
    # both vanish, and psi = 0 puts the density spike on the lattice sums'
    # pole xi = 0; the oracle must stay at the engine's precision throughout
    dom = make_domain(2.0, 3.0)
    f = (
        StepPacket.box(1.0, 1.3, 1.0)
        + StepPacket.box(1.3, 1.65, 0.5j, freq=1)
        + StepPacket.box(1.65, 2.0, -0.4 + 0.1j, freq=-2)
    )
    cases = ((1.0, 1.0, 0.3), (0.9, 12.25, 0.3), (0.5, 0.4, 0.3), (0.05, 2.3, 0.3), (0.05, 2.3, 0.0))
    for w, t, psi in cases:
        bm = make_boundary_matrix(w=w, theta=0.15, phi=0.4, psi=psi)
        for d in (0.0, 1e-13, 1.1e-12, 1e-10, 1e-6, 1e-4):
            lam = np.array([-2.0 + d, 1.0 - d, d, 0.37])
            oracle = semigroup_kernel_apply(bm, f, t, lam).values
            engine = compress_evolve(bm, dom, f, t).packet.transform(lam)
            assert np.max(np.abs(oracle - engine)) < 1e-14


def _space_oracle_loop(bm, f_centered, t, xs):
    """Reference: the space oracle with one (points x nodes) array of lattice
    sums per cell end."""
    pos, val, freq = _cell_ends(f_centered)
    xi, wq = semigroup._fold_rule(bm, abs(t) + 2.0)
    out = np.zeros(len(xs), dtype=complex)
    for p, s, n in zip(pos, val, freq):
        y = np.asarray(xs, dtype=float)[:, None] - t - p
        terms = e2pi(xi * y) * _lattice_sum(y, xi - n)
        out += s * e2pi(n * p) / (2j * np.pi) * (terms @ wq)
    return out


def test_space_oracle_matches_point_loop():
    # psi = 0 is left out: there the spike sits on the pole xi = 0 and the
    # loop's sin(pi (xi - n)) loses digits to the rounding of xi - n
    f = (
        StepPacket.box(-0.5, -0.1, 1.0)
        + StepPacket.box(-0.1, 0.2, 0.5j, freq=1)
        + StepPacket.box(0.2, 0.5, -0.7 + 0.2j, freq=-2)
    )
    xs = np.linspace(-0.49, 0.49, 23)
    for w in (0.9, 0.5, 0.2, 0.05):
        bm = make_boundary_matrix(w=w, theta=0.15, phi=0.4, psi=0.3)
        for t in (0.0, 0.4, 1.3, 4.6):
            want = _space_oracle_loop(bm, f, t, xs)
            got = semigroup._space_oracle_values(bm, f, t, xs)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_oracles_build_one_fold_rule_per_call(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature.fold_nodes(*args, **kwargs)

    monkeypatch.setattr(semigroup, "fold_nodes", counted)
    bm = make_boundary_matrix(w=0.4, theta=0.15, phi=0.4, psi=0.3)
    f = StepPacket.box(1.1, 1.7, 1.0) + StepPacket.box(1.75, 1.95, 0.5j, freq=1)
    for size in (1, 7, 40):
        calls.clear()
        norm_decay_profile(bm, 1, np.linspace(0.0, 4.5, size))
        assert len(calls) == 1
        calls.clear()
        semigroup_kernel_apply(bm, f, 1.3, np.linspace(-3.0, 3.0, size))
        assert len(calls) == 1


def test_kernel_route_oscillatory_packet():
    dom = make_domain(2.0, 3.0)
    bm = make_boundary_matrix(w=0.7, psi=0.5)
    f = StepPacket.box(1.0, 2.0, 1.0, freq=3)
    lam = np.array([2.6, 3.0, 3.4])
    oracle = semigroup_kernel_apply(bm, f, 0.55, lam)
    engine = compress_evolve(bm, dom, f, 0.55).packet.transform(lam)
    assert np.max(np.abs(oracle.values - engine)) < 1e-8


def test_parseval_bound():
    rng = np.random.default_rng(93)
    for _ in range(5):
        bm = random_boundary(rng)
        dom = make_domain(2.0, 3.0)
        f = StepPacket.box(1.1, 1.9, 1.0)
        partial, bound = parseval_bound_check(bm, dom, f, t=0.4)
        assert partial <= bound
        assert bound == pytest.approx(4.0 / bm.w**2 * f.norm2())


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
    # large Re lambda on a long interval: no route may overflow
    f = StepPacket.box(1.2, 3.3, 1.0)
    rep = resolvent_comparison(make_boundary_matrix(w=0.5), make_domain(3.5, 4.0), 800.0, f, xs)
    assert rep["laplace_vs_closed"] < 1e-8


def _cell_laplace_reference(lam, f, x_grid, lo, hi):
    """``semigroup._cell_laplace`` pair by pair: each (point, cell) adds
    c e^{-lam (x-b)} e(n b) (1 - e^{-mu (b-a)}) / mu over the cell clipped to
    (a, b) = (max(u, lo), min(v, hi)), zero when b <= a; mu = lam + i 2 pi n.
    Returns the sums and, per point, the sum of the terms' magnitudes."""
    out = np.zeros(x_grid.shape, dtype=complex)
    size = np.zeros(x_grid.shape)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    for n, vals in f.waves.items():
        mu = lam + 2j * np.pi * n
        b = np.minimum(f.hi, hi)
        width = np.maximum(b - np.maximum(f.lo, lo), 0.0)
        cell = np.exp(-lam * (x_grid[:, None] - b)) * e2pi(n * b)
        terms = cell * (-np.expm1(-mu * width) / mu) * vals
        out += terms.sum(axis=1)
        size += np.abs(terms).sum(axis=1)
    return out, size


@st.composite
def laplace_cases(draw):
    """(lam, f, x, lo, hi) with every upper limit at or below its x: f has
    1-5 cells on [1, 4] with frequencies from 0-2; x is unsorted and holds
    cell edges, points below the support, inside it and past it (by at most
    min(20 / Re lam, 1): no value underflows, and no phase Im lam (x - v)
    is so large that its own rounding shows).  The upper limit is x, or +inf
    with every x past the support; the lower one -inf, a scalar below the
    support, a cell start, or x - T per point with T in [1, 30] / Re lam (the
    Laplace route's horizon is 27.6 / Re lam).  x always holds the support's
    end v1, whose window ends there: a window that only grazes the support
    gives a small F(b) - F(a) with cancellation, so every draw keeps one
    value on the scale of the cell values to measure the error against."""
    lam = complex(draw(st.floats(0.05, 800.0)), draw(st.floats(-5.0, 5.0)))
    edges = sorted(draw(st.sets(st.integers(0, 48), min_size=2, max_size=10)))
    edges = 1.0 + np.array(edges[: len(edges) // 2 * 2]) / 16.0
    freqs = draw(st.sets(st.integers(0, 2), min_size=1))
    value = st.sampled_from([1.0, -0.5j, 0.3 + 0.2j, -2.0 + 1.0j])
    cells = len(edges) // 2
    f = StepPacket(
        edges[0::2], edges[1::2], {n: draw(st.lists(value, min_size=cells, max_size=cells)) for n in freqs}
    )
    u0, v1 = f.support()
    reach = min(20.0 / lam.real, 1.0)
    past = [v1] + [v1 + reach * draw(st.floats(0.0, 1.0)) for _ in range(draw(st.integers(0, 3)))]
    x = past + draw(st.lists(st.sampled_from([*f.lo, *f.hi]), max_size=6))
    x += draw(st.lists(st.floats(u0 - 1.0, v1), max_size=6))
    x = np.array(draw(st.permutations(x)))
    upper = draw(st.sampled_from(["x", "inf"]))
    if upper == "inf":
        x = np.array(draw(st.permutations(past)))
    hi = x if upper == "x" else np.inf
    lower = draw(st.sampled_from(["-inf", "below", "start", "x - T"]))
    lo = {"-inf": -np.inf, "below": u0 - 0.5, "start": draw(st.sampled_from(list(f.lo)))}.get(lower)
    if lower == "x - T":
        lo = x - np.array([draw(st.floats(1.0, 30.0)) for _ in x]) / lam.real
    return lam, f, x, lo, hi


@given(laplace_cases())
@settings(max_examples=200, deadline=None)
def test_cell_laplace_matches_the_pairwise_sum(case):
    # one antiderivative per anchor band against the (points x cells) sum,
    # measured on the scale of the largest point's terms: frequencies of
    # equal magnitude can cancel in a sum, as e(3.5) + e(7) = 0 does
    lam, f, x, lo, hi = case
    want, size = _cell_laplace_reference(lam, f, x, lo, hi)
    got = semigroup._cell_laplace(lam, f, x, lo, hi)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(size)


def _laplace_gauss_reference(bm, dom, lam, f, xs):
    """The Laplace route by order-16 Gauss-Legendre in t, one panel between
    consecutive times at which a cell edge of E f crosses x."""
    lam = complex(lam)
    t_max = -np.log(1e-12) / lam.real
    zero = StepPacket.zero()
    ef = block_row(bm, dom, (zero, f, zero), "izero", span=(0.0, t_max))
    x_grid = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty(x_grid.shape, dtype=complex)
    edges_src = ef.breakpoints()
    for k, x in enumerate(x_grid):
        # Z(t)f(x) = (Ef)(x - t): breakpoints in t at x - source edges
        cuts = x - edges_src
        cuts = cuts[(cuts > 0.0) & (cuts < t_max)]
        panels = np.unique(np.concatenate(([0.0], cuts, [t_max])))
        out[k] = quadrature.gauss_panels(
            lambda ts: ef.sample(x - ts) * np.exp(-lam * ts), panels
        )
    return out


def test_laplace_route_matches_gauss_reference():
    for alpha in (2.0, 3.5):
        dom = make_domain(alpha, alpha + 1.25)
        f = mid_packet(dom) + StepPacket.box(
            1.0 + 0.3 * dom.ell, 1.0 + 0.8 * dom.ell, 0.4 - 0.3j, freq=2
        )
        xs = np.concatenate(([1.0, alpha], np.linspace(1.0, alpha, 9)[1:-1]))
        for w in (1.0, 0.9, 0.5, 0.2, 0.05):
            bm = make_boundary_matrix(w=w, theta=0.1, phi=0.35, psi=0.3)
            for lam in (0.05, 0.3 + 2j, 1.2 + 0.7j, 8.0, 40.0 + 3j):
                want = _laplace_gauss_reference(bm, dom, lam, f, xs)
                got = compressed_resolvent_profile(bm, dom, lam, f, xs).values
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_resolvent_routes_use_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a resolvent route ran a quadrature")

    monkeypatch.setattr(semigroup, "fold_nodes", refuse)
    monkeypatch.setattr(quadrature, "gauss_panels", refuse)
    monkeypatch.setattr(StepPacket, "sample", refuse)
    bm = make_boundary_matrix(w=0.6, psi=0.2)
    dom = make_domain(2.0, 3.0)
    rep = resolvent_comparison(bm, dom, 1.2 + 0.7j, mid_packet(dom), [1.0, 1.5, 2.0])
    assert rep["laplace_vs_closed"] < 1e-8


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
    with pytest.raises(SupportViolation):
        semigroup_kernel_apply(bm, stray, 1.0, [0.0])
    with pytest.raises(HalfPlaneViolation):
        resolvent_comparison(bm, dom, -1.0 + 1j, f, [1.5])
    with pytest.raises(SupportViolation):
        resolvent_comparison(bm, dom, 1.0, stray, [1.5])
    with pytest.raises(DegenerateRegime, match="compressed_resolvent_profile"):
        resolvent_comparison(dec, dom, 1.0, f, [1.5])
    for xs in ([0.5, 1.5], [1.5, 2.5], [10.0], [1.5, np.nan]):
        with pytest.raises(ValidationError):
            resolvent_comparison(bm, dom, 0.9 + 0.2j, f, xs)
        with pytest.raises(ValidationError):
            spatial_resolvent(dom, 0.9 + 0.2j, f, xs)
    # mass off (1, alpha) is refused, not dropped
    for bad in (stray, f + StepPacket.box(3.5, 4.0, 1.0)):
        with pytest.raises(SupportViolation):
            spatial_resolvent(dom, 1.0, bad, [1.5])
    with pytest.raises(DegenerateRegime):
        norm_decay_profile(dec, 0, [0.0, 0.5])
    with pytest.raises(NegativeTime):
        norm_decay_profile(bm, 0, [-0.5])


def test_norm_decay_profile_refuses_an_empty_grid():
    with pytest.raises(ValidationError, match="at least one time"):
        norm_decay_profile(make_boundary_matrix(w=0.7), 0, [])


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", np.nan, 1e30, True, None])
def test_norm_decay_profile_refuses_a_non_integer_mode(bad):
    # 1.5 used to profile mode 1, "1" passed, NaN and 1e30 escaped as
    # ValueError and OverflowError
    with pytest.raises(ValidationError, match="integer mode"):
        norm_decay_profile(make_boundary_matrix(w=0.7), bad, [0.5])


def test_norm_decay_profile_takes_a_numpy_integer_mode():
    bm = make_boundary_matrix(w=0.7, psi=0.2)
    got, want = norm_decay_profile(bm, np.int64(-2), [0.5, 1.3]), norm_decay_profile(bm, -2, [0.5, 1.3])
    assert np.array_equal(got.engine, want.engine) and np.array_equal(got.oracle, want.oracle)


def test_resolvent_routes_refuse_an_empty_grid():
    dom = make_domain(2.0, 3.0)
    f = StepPacket.box(1.2, 1.8, 1.0)
    with pytest.raises(ValidationError, match="at least one point"):
        resolvent_comparison(make_boundary_matrix(w=0.7), dom, 1.0 + 0.5j, f, [])
    with pytest.raises(ValidationError, match="at least one point"):
        spatial_resolvent(dom, 1.0 + 0.5j, f, [])


def test_oracles_integrate_the_restricted_packet():
    # a sliver on [alpha, beta] whose norm^2 of 1e-13 passes the leak rule:
    # every route must integrate the restricted packet, not the sliver
    bm = make_boundary_matrix(w=0.6)
    dom = make_domain(2.0, 3.0)
    f = mid_packet(dom) + StepPacket.box(2.4, 2.4 + 1e-13, 1.0)
    inside = f.restrict(1.0, 2.0)
    xs, lam = np.linspace(1.0, 2.0, 11), np.linspace(-2.0, 2.0, 9)
    got = compressed_resolvent_profile(bm, dom, 0.8 + 0.3j, f, xs).values
    want = compressed_resolvent_profile(bm, dom, 0.8 + 0.3j, inside, xs).values
    assert np.array_equal(got, want)
    got = semigroup_kernel_apply(bm, f, 0.7, lam).values
    assert np.array_equal(got, semigroup_kernel_apply(bm, inside, 0.7, lam).values)
    assert resolvent_comparison(bm, dom, 0.8 + 0.3j, f, xs)["laplace_vs_closed"] == (
        resolvent_comparison(bm, dom, 0.8 + 0.3j, inside, xs)["laplace_vs_closed"]
    )


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
