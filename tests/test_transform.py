"""Forward/adjoint spectral transform and sigma-weighted pairings."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twogap
from twogap import quadrature, transform
from twogap.domain import classify_point, e2pi, make_boundary_matrix, make_domain
from twogap.eigen import eigenfunction_eval
from twogap.errors import DegenerateRegime, ValidationError
from twogap.evolution import COMPONENTS, evolve
from twogap.packets import StepPacket
from twogap.transform import (
    TransformSample,
    adjoint_transform,
    cross_term,
    forward_transform,
    sigma_norm2,
)

from conftest import (
    forbid_series,
    plain_fold_nodes,
    random_boundary,
    random_geometry,
    random_packet,
)


def test_forward_matches_eigenfunction_pairing(generic):
    # independent route: (Vf)(lambda) = int f(x) conj(psi_lambda(x)) dx
    bm, dom = generic
    f = StepPacket.box(-1.2, -0.4, 1.0 - 0.5j) + StepPacket.box(1.1, 1.9, 0.25j)
    lam_grid = np.array([-1.3, 0.0, 0.77, 2.4])
    sample = forward_transform(bm, dom, f, lam_grid)
    for k, lam in enumerate(lam_grid):
        edges = np.linspace(-1.2, -0.4, 20001)
        mids = 0.5 * (edges[:-1] + edges[1:])
        h = edges[1] - edges[0]
        brute = np.sum(
            f.sample(mids) * np.conj(eigenfunction_eval(bm, dom, lam, mids))
        ) * h
        edges = np.linspace(1.1, 1.9, 20001)
        mids = 0.5 * (edges[:-1] + edges[1:])
        brute += np.sum(
            f.sample(mids) * np.conj(eigenfunction_eval(bm, dom, lam, mids))
        ) * (edges[1] - edges[0])
        # limited by the midpoint rule, not the closed form
        assert abs(sample.values[k] - brute) < 1e-8
    assert sample.source is f


# lambda points free of any simple ratio with a time grid: at one of them
# 2 lambda t is not an integer whenever t != 0, so e(-lambda t) and
# e(+lambda t) differ (on a 0.1-step grid, t = 25 would make them agree)
_INTERTWINING_LAM = np.array([-2.37, -1.6180339887, -0.7071067811, -0.291, 0.1732050807,
                              0.577, 1.0954451150, 1.7320508075, 2.2360679775])
# worst scaled gap measured over 2,000 draws of the property below: 9.7e-15
_INTERTWINING_BOUND = 1e-13


def _intertwining_gap(bm, dom, f, t, sign=-1.0):
    """max |V U(t) f - e(sign lambda t) V f| on ``_INTERTWINING_LAM``,
    relative to max |V f| and scaled by 1 + |t| max |lambda| (the phase
    e(lambda t) is rounded at an argument of that size)."""
    lam = _INTERTWINING_LAM
    vf = forward_transform(bm, dom, f, lam).values
    vu = forward_transform(bm, dom, evolve(bm, dom, f, t).packet, lam).values
    scale = np.max(np.abs(vf)) * (1.0 + abs(t) * np.max(np.abs(lam)))
    return np.max(np.abs(vu - e2pi(sign * lam * t) * vf)) / scale


@st.composite
def packets_on_every_component(draw):
    """(bm, dom, f): w in [1e-3, 1] (below about 1e-8 q rounds to 1 and the
    series route is refused) and one cell of frequency 0, 1 or 2 on each
    component, within 4 of its finite end."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    bm = make_boundary_matrix(w=draw(st.floats(1e-3, 1.0)), theta=draw(unit), phi=draw(unit), psi=draw(unit))
    alpha = draw(st.floats(1.2, 3.0))
    dom = make_domain(alpha, alpha + draw(st.floats(0.3, 2.0)))
    f = StepPacket.zero()
    for component in ("iminus", "izero", "iplus"):
        lo, hi = dom.component(component)
        lo = hi - 4.0 if lo == -np.inf else lo
        hi = min(hi, lo + 4.0)
        a = lo + draw(st.floats(0.0, 0.8)) * (hi - lo)
        b = a + draw(st.floats(0.05, 0.2)) * (hi - lo)
        value = draw(st.floats(0.1, 2.0)) * complex(e2pi(draw(unit)))
        f = f + StepPacket.box(a, b, value, freq=draw(st.sampled_from([0, 1, 2])))
    return bm, dom, f


@given(packets_on_every_component(), st.floats(-30.0, 30.0))
@settings(max_examples=100, deadline=None)
def test_transform_intertwines_evolution(case, t):
    # the unitary equivalence itself: V U(t) f = e(-lambda t) V f
    assert _intertwining_gap(*case, t) <= _INTERTWINING_BOUND


@pytest.mark.parametrize("t", [-7.3, 2.9, 25.0])
def test_intertwining_check_sees_a_flipped_sign(generic, t):
    # e(+lambda t) in place of e(-lambda t) must fail the same bound
    bm, dom = generic
    f = (
        StepPacket.box(-1.2, -0.4, 1.0 - 0.5j)
        + StepPacket.box(1.1, 1.9, 0.25j, freq=1)
        + StepPacket.box(4.0, 4.6, 0.7, freq=2)
    )
    assert _intertwining_gap(bm, dom, f, t) <= _INTERTWINING_BOUND
    assert _intertwining_gap(bm, dom, f, t, sign=1.0) > 1e3 * _INTERTWINING_BOUND


def test_sigma_norm_is_packet_norm():
    rng = np.random.default_rng(60)
    for _ in range(5):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        f = random_packet(rng, lo=-3.0, hi=-0.2)
        got = sigma_norm2(bm, dom, f)
        assert abs(got - f.norm2()) < 1e-6 * max(1.0, f.norm2())


def test_sigma_norm_per_component(generic):
    bm, dom = generic
    pieces = {
        "left": StepPacket.box(-2.0, -1.0, 0.7 + 0.3j),
        "middle": StepPacket.box(1.2, 2.0, 1.0),
        "right": StepPacket.box(4.0, 5.5, -0.4 + 1.0j),
    }
    for f in pieces.values():
        assert abs(sigma_norm2(bm, dom, f) - f.norm2()) < 1e-6


def test_cross_terms_vanish_between_components():
    rng = np.random.default_rng(61)
    for _ in range(5):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        scale = np.sqrt(dom.beta)
        parts = [
            random_packet(rng, lo=-3.0, hi=-0.1),
            random_packet(rng, lo=1.0 + 0.05 * scale, hi=dom.alpha - 0.05 * scale),
            random_packet(rng, lo=dom.beta + 0.1, hi=dom.beta + 3.0),
        ]
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                ct = cross_term(bm, dom, parts[i], parts[j])
                bound = 1e-8 * np.sqrt(parts[i].norm2() * parts[j].norm2())
                assert abs(ct) < max(bound, 1e-12)


def test_cross_term_matches_inner_product(generic):
    bm, dom = generic
    f = StepPacket.box(-1.5, -0.25, 1.0) + StepPacket.box(1.2, 1.8, 0.5j)
    g = StepPacket.box(-0.75, -0.1, 2.0 - 1.0j) + StepPacket.box(1.5, 2.1, 1.0)
    assert abs(cross_term(bm, dom, f, g) - f.inner(g)) < 1e-6


def test_adjoint_roundtrip_analytic(generic):
    bm, dom = generic
    f = StepPacket.box(-1.0, -0.25, 1.0 + 1.0j) + StepPacket.box(1.3, 1.9, -0.5)
    sample = forward_transform(bm, dom, f, np.linspace(-1.0, 1.0, 5))
    back = adjoint_transform(bm, dom, sample)
    xs = []
    for u, v, _ in f.cells():
        xs.extend(np.linspace(u, v, 9)[1:-1])
    xs = np.array(xs)
    assert np.max(np.abs(back.sample(xs) - f.sample(xs))) < 1e-6


def test_validation_and_regime_errors(ex59):
    bm, dom = ex59
    dec = make_boundary_matrix(w=0.0)
    f = StepPacket.box(-0.5, 0.0, 1.0)
    osc = StepPacket.box(-0.5, 0.0, 1.0, freq=1)
    with pytest.raises(DegenerateRegime):
        forward_transform(dec, dom, f, [0.0])
    with pytest.raises(DegenerateRegime):
        cross_term(dec, dom, f, f)
    with pytest.raises(ValidationError):
        cross_term(bm, dom, osc, f)
    with pytest.raises(ValidationError):
        adjoint_transform(bm, dom, forward_transform(bm, dom, osc, [0.0]))
    # bare transform values carry no packet to reconstruct on
    sample = forward_transform(bm, dom, f, np.linspace(-1, 1, 5))
    with pytest.raises(ValidationError):
        adjoint_transform(bm, dom, TransformSample(sample.grid, sample.values))


def test_forward_linear(generic):
    bm, dom = generic
    grid = np.linspace(-2.0, 2.0, 21)
    f = StepPacket.box(-1.0, -0.5, 1.0)
    g = StepPacket.box(1.2, 1.7, 1.0 - 2.0j)
    lhs = forward_transform(bm, dom, f + g.scale(0.5j), grid).values
    rhs = (
        forward_transform(bm, dom, f, grid).values
        + 0.5j * forward_transform(bm, dom, g, grid).values
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-13


# seven cells over all three components of alpha = 2, beta = 10/3
_FOLD_DOMAIN = make_domain(2.0, 10.0 / 3.0)
_FOLD_F = (
    StepPacket.box(-2.3, -1.4, 0.8 - 0.3j)
    + StepPacket.box(-1.1, -0.2, 1.2j)
    + StepPacket.box(1.1, 1.45, -0.6 + 0.5j)
    + StepPacket.box(1.6, 1.95, 0.9)
    + StepPacket.box(3.5, 4.2, 0.4 - 1.1j)
    + StepPacket.box(4.6, 5.3, -0.7)
    + StepPacket.box(5.9, 6.4, 0.3 + 0.2j)
)
_FOLD_G = (
    StepPacket.box(-1.7, -0.6, 1.0 - 0.4j)
    + StepPacket.box(1.25, 1.8, 0.7j)
    + StepPacket.box(3.9, 5.0, -0.5)
)


def _check_folded_oracles(bm):
    dom, f, g = _FOLD_DOMAIN, _FOLD_F, _FOLD_G
    assert abs(sigma_norm2(bm, dom, f) - f.norm2()) < 1e-13 * max(1.0, f.norm2())
    assert abs(cross_term(bm, dom, f, g) - f.inner(g)) < 1e-13
    back = adjoint_transform(bm, dom, forward_transform(bm, dom, f, [0.0]))
    # the reconstruction points: midpoints of four subcells per cell
    edges = [np.linspace(u, v, 5) for u, v, _ in f.cells()]
    xs = np.concatenate([0.5 * (e[:-1] + e[1:]) for e in edges])
    assert np.max(np.abs(back.sample(xs) - f.sample(xs))) < 1e-12


@pytest.mark.parametrize("w", [1.0, 0.9, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005])
def test_folded_oracles_across_coupling(w):
    # the fold sizes its mapped rule from q, so the spikes of the density
    # near w -> 0 cost nodes, not accuracy; below w = 0.005 a node near the
    # spike, stored to ulp(psi), errs by about 1e-16 4 pi / w^2 relative
    _check_folded_oracles(make_boundary_matrix(w, theta=0.15, phi=0.3, psi=0.45))


@pytest.mark.parametrize("w", [0.2, 0.05, 0.01, 0.005])
def test_folded_oracles_spike_on_pole(w):
    # psi = 0 puts the density spike on xi = 0, the removable pole of the
    # lattice sums, which the rule straddles with two nodes
    _check_folded_oracles(make_boundary_matrix(w, theta=0.15, phi=0.3, psi=0.0))


@pytest.mark.parametrize("w", [0.9, 0.5, 0.2])
def test_cross_term_matches_plain_rule(monkeypatch, w):
    bm = make_boundary_matrix(w, theta=0.15, phi=0.3, psi=0.45)
    dom, f, g = _FOLD_DOMAIN, _FOLD_F, _FOLD_G
    mapped = cross_term(bm, dom, f, g)
    monkeypatch.setattr(transform, "fold_nodes", plain_fold_nodes)
    assert abs(mapped - cross_term(bm, dom, f, g)) < 1e-12


def test_adjoint_folds_once_and_reads_one_window_sum(monkeypatch):
    # the adjoint folds once and reads the window sums of every (point,
    # cell) pair in one call, whatever components occur: _FOLD_F has cells
    # on all three components, its middle part on one
    calls = {"fold": 0, "windows": 0}

    def counted_fold(*args, **kwargs):
        calls["fold"] += 1
        return quadrature.fold_nodes(*args, **kwargs)

    def counted_windows(*args, **kwargs):
        calls["windows"] += 1
        return quadrature._fold_windows(*args, **kwargs)

    bm = make_boundary_matrix(0.3, theta=0.15, phi=0.3, psi=0.45)
    monkeypatch.setattr(transform, "fold_nodes", counted_fold)
    monkeypatch.setattr(transform, "_fold_windows", counted_windows)
    for f in (_FOLD_F, _FOLD_F.restrict(1.0, 2.0)):
        calls.update(fold=0, windows=0)
        sample = forward_transform(bm, _FOLD_DOMAIN, f, [0.0])
        adjoint_transform(bm, _FOLD_DOMAIN, sample)
        assert calls == {"fold": 1, "windows": 1}


def test_adjoint_of_the_zero_packet_is_zero(generic):
    # V* V 0 = 0: no cell, no reconstruction point
    bm, dom = generic
    back = adjoint_transform(bm, dom, forward_transform(bm, dom, StepPacket.zero(), [0.0]))
    assert back.is_empty


def test_component_indices_follow_classify_point():
    dom = _FOLD_DOMAIN
    rng = np.random.default_rng(8)
    xs = np.concatenate([rng.uniform(-2.0, 6.0, 200), [-1e-300, 1.0 + 1e-15, np.nextafter(dom.beta, 9.0)]])
    inside = np.array([classify_point(dom, x).value in COMPONENTS for x in xs])
    got = transform._component_indices(dom, xs[inside])
    assert got.tolist() == [COMPONENTS.index(classify_point(dom, x).value) for x in xs[inside]]
    # a point on an obstacle or one of its four ends is not in the domain
    for x in xs[~inside].tolist() + [0.0, 1.0, dom.alpha, dom.beta]:
        with pytest.raises(ValidationError, match="not in the domain"):
            transform._component_indices(dom, np.array([1.5, x]))


@st.composite
def pairing_cases(draw):
    """(bm, f, g): w in [0.05, 1], psi 0 or drawn, and two frequency-0
    packets of 1-2 boxes on each component of ``_FOLD_DOMAIN``."""
    w = draw(st.floats(0.05, 1.0))
    psi = draw(st.just(0.0) | st.floats(0.0, 1.0))
    bm = make_boundary_matrix(w, theta=draw(st.floats(0.0, 1.0)), phi=draw(st.floats(0.0, 1.0)), psi=psi)
    value = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))

    def packet():
        out = StepPacket.zero()
        for lo, hi in ((-3.0, -0.1), (1.05, 1.95), (3.4, 6.5)):  # I-, I0, I+
            for _ in range(draw(st.integers(1, 2))):
                a, b = sorted(draw(st.floats(lo, hi)) for _ in range(2))
                out = out + StepPacket.box(a, max(b, a + 1e-3), draw(value))
        return out

    return bm, packet(), packet()


@given(pairing_cases())
@settings(max_examples=25, deadline=None)
def test_pairing_is_hermitian_and_sigma_is_its_real_part(case):
    # swapping f and g conjugates every pair's ramp sum, so <f, g> = conj
    # <g, f>; sigma_norm2 is the real part of that one pairing of f with
    # itself, Re cross_term(f, f)
    bm, f, g = case
    dom = _FOLD_DOMAIN
    fg, gf = cross_term(bm, dom, f, g), cross_term(bm, dom, g, f)
    assert abs(fg - np.conj(gf)) <= 1e-13 * max(1.0, np.sqrt(f.norm2() * g.norm2()))
    full = np.real(cross_term(bm, dom, f, f))
    assert abs(sigma_norm2(bm, dom, f) - full) <= 1e-14 * max(1.0, f.norm2())


@st.composite
def ramp_cases(draw):
    """(bm, f, g): w in [0.05, 1], psi 0 or drawn, and two frequency-0
    packets of 1-8 boxes on each component of ``_FOLD_DOMAIN`` (ell = 1),
    the half-line ones drawn from supports 10.4 lattice steps long."""
    w = draw(st.floats(0.05, 1.0))
    psi = draw(st.just(0.0) | st.floats(0.0, 1.0))
    bm = make_boundary_matrix(w, theta=draw(st.floats(0.0, 1.0)), phi=draw(st.floats(0.0, 1.0)), psi=psi)
    value = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    beta = _FOLD_DOMAIN.beta

    def packet():
        out = StepPacket.zero()
        for lo, hi in ((-10.5, -0.1), (1.05, 1.95), (beta + 0.1, beta + 10.5)):  # I-, I0, I+
            for _ in range(draw(st.integers(1, 8))):
                a, b = sorted(draw(st.floats(lo, hi)) for _ in range(2))
                out = out + StepPacket.box(a, max(b, a + 1e-3), draw(value))
        return out

    return bm, packet(), packet()


@given(ramp_cases())
@settings(max_examples=30, deadline=None)
def test_ramp_sum_pairing_is_the_inner_product(case):
    # the pairing as ramp sums over the weight's Fourier coefficients meets
    # the fold rule's 1e-13 target with ends up to 22 lattice steps apart;
    # the zero packet pairs to exactly 0
    bm, f, g = case
    dom = _FOLD_DOMAIN
    scale = max(1.0, np.sqrt(f.norm2() * g.norm2()))
    assert abs(cross_term(bm, dom, f, g) - f.inner(g)) <= 1e-13 * scale
    assert abs(sigma_norm2(bm, dom, f) - f.norm2()) <= 1e-13 * max(1.0, f.norm2())
    zero = StepPacket.zero()
    assert cross_term(bm, dom, f, zero) == 0.0
    assert cross_term(bm, dom, zero, g) == 0.0
    assert sigma_norm2(bm, dom, zero) == 0.0


@pytest.mark.parametrize("w", [0.9, 0.45, 0.2, 0.1])
def test_pairing_error_does_not_grow_with_cell_distance(w):
    # short cells spread over 120 lattice steps: each ramp is anchored at
    # its own cell pair, so no term grows with the distance between cells
    # (one anchor at floor(y) = 0 for all pairs erred by up to 1.7e-13 here)
    bm = make_boundary_matrix(w, theta=0.15, phi=0.3, psi=0.45)
    dom = _FOLD_DOMAIN
    rng = np.random.default_rng(5)
    for _ in range(3):
        f, g = StepPacket.zero(), StepPacket.zero()
        for _ in range(8):
            a, b = rng.uniform(-120.0, -1.0), rng.uniform(dom.beta + 0.1, dom.beta + 119.0)
            f = f + StepPacket.box(a, a + rng.uniform(0.05, 0.5), complex(*rng.normal(size=2)))
            g = g + StepPacket.box(b, b + rng.uniform(0.05, 0.5), complex(*rng.normal(size=2)))
            a, b = rng.uniform(1.05, 1.85), rng.uniform(-120.0, -1.0)
            f = f + StepPacket.box(a, a + 0.05, complex(*rng.normal(size=2)))
            g = g + StepPacket.box(b, b + rng.uniform(0.05, 0.5), complex(*rng.normal(size=2)))
        scale = max(1.0, np.sqrt(f.norm2() * g.norm2()))
        assert abs(cross_term(bm, dom, f, g) - f.inner(g)) <= 1e-13 * scale
        assert abs(sigma_norm2(bm, dom, f) - f.norm2()) <= 1e-13 * max(1.0, f.norm2())


def test_sigma_builds_no_pair_by_node_array(monkeypatch):
    # the pairing evaluates e(n xi) once per lattice index n and node, not
    # e(xi y) once per pair of cell ends and node: 39 cells (6,084 end
    # pairs) whose shifted ends lie within 5 lattice steps of each other
    # reach n = -5 ... 4, so the phases hold 10 rows of nodes and the
    # three of amp
    seen = {"nodes": 0, "elements": 0}

    def counted_fold(*args, **kwargs):
        xi, wq = quadrature.fold_nodes(*args, **kwargs)
        seen["nodes"] = len(xi)
        return xi, wq

    def counted_e2pi(x):
        seen["elements"] += np.size(x)
        return e2pi(x)

    f = StepPacket.zero()
    for k in range(13):
        f = f + StepPacket.box(-1.9 + 0.14 * k, -1.8 + 0.14 * k, 1.0 + 0.1j * k)
        f = f + StepPacket.box(1.02 + 0.07 * k, 1.06 + 0.07 * k, 0.5 - 0.2j * k)
        f = f + StepPacket.box(3.4 + 0.14 * k, 3.5 + 0.14 * k, -0.3 + 0.4j)
    assert f.n_cells == 39
    bm = make_boundary_matrix(0.2, theta=0.15, phi=0.3, psi=0.45)
    monkeypatch.setattr(transform, "fold_nodes", counted_fold)
    monkeypatch.setattr(transform, "e2pi", counted_e2pi)
    monkeypatch.setattr(quadrature, "e2pi", counted_e2pi)
    assert abs(sigma_norm2(bm, _FOLD_DOMAIN, f) - f.norm2()) <= 1e-13 * f.norm2()
    assert 0 < seen["elements"] <= 13 * seen["nodes"]


def test_quadrature_oracles_read_no_series(monkeypatch, generic):
    # the oracles check the packet engine, so they must read no engine
    # series at all: neither a cut window nor the one generator
    forbid_series(monkeypatch, "quadrature oracle", "_lattice_series")
    bm, dom = generic
    f = StepPacket.box(-1.0, -0.25, 1.0) + StepPacket.box(1.3, 1.9, -0.5)
    g = StepPacket.box(-0.75, -0.1, 2.0 - 1.0j) + StepPacket.box(4.0, 5.0, 1.0)
    sigma_norm2(bm, dom, f)
    cross_term(bm, dom, f, g)
    adjoint_transform(bm, dom, forward_transform(bm, dom, f, [0.0]))


def test_import_needs_no_scipy():
    src = str(Path(twogap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, twogap; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_pairings_and_oracles_leave_numpy_ma_unimported():
    # numpy 2.4's plain np.unique imports numpy.ma on its first call, about
    # 10 ms in a fresh interpreter: no pairing or oracle below may pay it
    src = str(Path(twogap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = """if True:
        import sys
        import numpy as np
        from twogap import StepPacket, make_boundary_matrix, make_domain
        from twogap.semigroup import norm_decay_profile, resolvent_comparison, semigroup_kernel_apply
        from twogap.spectral import period_integral
        from twogap.transform import adjoint_transform, cross_term, forward_transform, sigma_norm2

        dom, bm = make_domain(2.0, 3.0), make_boundary_matrix(w=0.5, psi=0.2)
        f = StepPacket.box(-2.0, -1.0, 0.5) + StepPacket.box(1.2, 1.8, 1.0)
        g = StepPacket.box(1.5, 1.9, 1.0, freq=1)
        seen = ["numpy.ma" in sys.modules]
        f.inner(g)
        f.breakpoints()
        resolvent_comparison(bm, dom, 1.2 + 0.7j, g, np.linspace(1.0, 2.0, 11))
        sigma_norm2(bm, dom, f)
        cross_term(bm, dom, f, f.translate(0.1))
        adjoint_transform(bm, dom, forward_transform(bm, dom, f, [0.0, 0.5]))
        semigroup_kernel_apply(bm, g, 0.5, np.linspace(-1.0, 1.0, 5))
        norm_decay_profile(bm, 1, [0.5, 1.5])
        period_integral(bm, dom)
        seen.append("numpy.ma" in sys.modules)
        print(seen)
    """
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[False, False]"
