"""Generalized eigenfunctions, matching residuals, scattering coefficient."""

import numpy as np
import pytest

from twogap.domain import Region, classify_point, e2pi, make_boundary_matrix, make_domain
from twogap.eigen import (
    bound_state_spectrum,
    decoupled_eigenfunction_eval,
    eigen_coeffs,
    eigen_coeffs_solve,
    eigen_residual,
    eigenfunction_eval,
    eigenfunction_traces,
    scattering_matrix,
    scattering_matrix_routes,
    transfer_H,
)
from twogap.errors import DegenerateRegime, NotDecoupled, OutOfDomain, ValidationError
from twogap.packets import StepPacket

from conftest import random_boundary, random_geometry

LAM = np.linspace(-5.0, 5.0, 241)


def test_half_coupling_anchors(ex59):
    # frozen by hand: w = sqrt(3)/2, q = 1/2, no phases, alpha = 2
    bm, dom = ex59
    co = eigen_coeffs(bm, dom, 0.0)
    assert complex(co.a) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)
    assert complex(co.c) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)
    assert complex(co.h) == pytest.approx(2.0, abs=1e-14)
    assert float(co.m) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)
    assert co.b_norm == 1.0
    assert complex(transfer_H(bm, dom, 0.0)) == pytest.approx(2.0, abs=1e-14)


def test_matching_residual_battery():
    rng = np.random.default_rng(42)
    for _ in range(20):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        res = eigen_residual(bm, dom, eigen_coeffs(bm, dom, LAM))
        assert float(np.max(res)) < 1e-12


def test_solver_route_matches_closed_form():
    rng = np.random.default_rng(43)
    for _ in range(10):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        lam = rng.uniform(-4.0, 4.0)
        closed = eigen_coeffs(bm, dom, lam)
        solved = eigen_coeffs_solve(bm, dom, lam)
        assert abs(complex(closed.a) - solved.a) < 1e-12
        assert abs(complex(closed.c) - solved.c) < 1e-12
        assert float(np.max(eigen_residual(bm, dom, solved))) < 1e-12


def test_amplitudes_share_modulus():
    rng = np.random.default_rng(44)
    for _ in range(10):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        co = eigen_coeffs(bm, dom, LAM)
        assert np.max(np.abs(np.abs(co.a) - np.abs(co.c))) < 1e-13


def test_modulus_bounds():
    rng = np.random.default_rng(45)
    for _ in range(10):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        m = eigen_coeffs(bm, dom, LAM).m
        lo, hi = (1.0 - bm.q) / bm.w, (1.0 + bm.q) / bm.w
        assert np.all(m >= lo - 1e-12)
        assert np.all(m <= hi + 1e-12)
        # looser universal bracket
        assert np.all(m >= bm.w / 2.0 - 1e-12)
        assert np.all(m <= 2.0 / bm.w + 1e-12)


def test_scattering_unimodular_three_routes():
    rng = np.random.default_rng(46)
    for _ in range(10):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        routes = scattering_matrix_routes(bm, dom, LAM)
        vals = list(routes.values())
        for v in vals:
            assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert np.max(np.abs(vals[i] - vals[j])) < 1e-12
        assert np.max(np.abs(routes["ratio"] - scattering_matrix(bm, dom, LAM))) == 0.0


def test_transparent_scattering_is_pure_delay():
    # w = 1 removes the resonator: S = e(-theta - (gap+1) lambda)
    bm = make_boundary_matrix(w=1.0, theta=0.35, phi=0.2)
    dom = make_domain(2.5, 4.0)
    s = scattering_matrix(bm, dom, LAM)
    want = e2pi(-bm.theta - (dom.gap + 1.0) * LAM)
    assert np.max(np.abs(s - want)) < 1e-13


def test_eigenfunction_regions(generic):
    bm, dom = generic
    lam = 0.83
    co = eigen_coeffs(bm, dom, lam)
    xs = np.array([-2.0, 1.5, 5.0])
    vals = eigenfunction_eval(bm, dom, lam, xs)
    assert abs(vals[0] - co.a * e2pi(lam * -2.0)) < 1e-14
    assert abs(vals[1] - 1.0 * e2pi(lam * 1.5)) < 1e-14
    assert abs(vals[2] - co.c * e2pi(lam * 5.0)) < 1e-14
    with pytest.raises(OutOfDomain):
        eigenfunction_eval(bm, dom, lam, 0.5)
    with pytest.raises(OutOfDomain):
        eigenfunction_eval(bm, dom, lam, dom.alpha)


def test_traces_intertwined_by_boundary_matrix():
    rng = np.random.default_rng(47)
    for _ in range(10):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        lam = rng.uniform(-3.0, 3.0)
        rho1, rho2 = eigenfunction_traces(bm, dom, lam)
        assert np.max(np.abs(bm.matrix() @ rho1 - rho2)) < 1e-12


def test_coupled_api_rejects_decoupled():
    bm = make_boundary_matrix(w=0.0, theta=0.1, psi=0.2)
    dom = make_domain(2.0, 3.0)
    with pytest.raises(DegenerateRegime):
        eigen_coeffs(bm, dom, 0.5)
    with pytest.raises(DegenerateRegime):
        scattering_matrix_routes(bm, dom, 0.5)


def test_bound_state_lattice():
    bm = make_boundary_matrix(w=0.0, theta=0.125, psi=0.25)
    dom = make_domain(2.0, 3.0)  # ell = 1
    lams = bound_state_spectrum(bm, dom, -2, 3)
    assert np.allclose(lams, [-1.75, -0.75, 0.25, 1.25, 2.25])
    dom2 = make_domain(1.5, 3.0)  # ell = 1/2: spacing doubles
    lams2 = bound_state_spectrum(bm, dom2, 0, 3)
    assert np.allclose(np.diff(lams2), 2.0)
    with pytest.raises(NotDecoupled):
        bound_state_spectrum(make_boundary_matrix(w=0.5), dom, 0, 3)
    with pytest.raises(ValidationError):
        bound_state_spectrum(bm, dom, 3, 3)


def test_decoupled_eigenfunctions():
    bm = make_boundary_matrix(w=0.0, theta=0.125, psi=0.25)
    dom = make_domain(2.0, 3.0)
    lam = bound_state_spectrum(bm, dom, 1, 2)[0]
    xs = np.array([-1.0, 1.5, 4.0])
    bound = decoupled_eigenfunction_eval(bm, dom, lam, xs, "bound")
    assert bound[0] == 0.0 and bound[2] == 0.0
    assert abs(bound[1] - e2pi(lam * 1.5)) < 1e-14

    cont = decoupled_eigenfunction_eval(bm, dom, 0.3, xs, "continuum")
    assert cont[1] == 0.0
    left = -e2pi(bm.theta - bm.psi + dom.beta * 0.3) * e2pi(0.3 * -1.0)
    assert abs(cont[0] - left) < 1e-14
    assert abs(cont[2] - e2pi(0.3 * 4.0)) < 1e-14

    with pytest.raises(ValidationError):
        decoupled_eigenfunction_eval(bm, dom, 0.3, xs, "bound")  # off lattice
    with pytest.raises(ValidationError):
        decoupled_eigenfunction_eval(bm, dom, 0.3, xs, "scattering")
    with pytest.raises(OutOfDomain):
        decoupled_eigenfunction_eval(bm, dom, 0.3, 0.5, "continuum")
    with pytest.raises(NotDecoupled):
        decoupled_eigenfunction_eval(make_boundary_matrix(w=0.4), dom, 0.3, xs, "continuum")


def test_classify_point_edges():
    dom = make_domain(2.0, 3.0)
    assert classify_point(dom, 0.0) is Region.BOUNDARY
    assert classify_point(dom, 2.0) is Region.BOUNDARY
    assert classify_point(dom, 0.5) is Region.BARRIER_1
    assert classify_point(dom, 2.5) is Region.BARRIER_2


@pytest.mark.parametrize("lam", [0.5 + 0.25j, np.array([0.0, 1.0 - 0.5j]), [0.3j]])
def test_complex_lambda_rejected(ex59, lam):
    # complex lambda (resonances) is not supported yet: refuse it rather
    # than drop the imaginary part
    bm, dom = ex59
    with pytest.raises(ValidationError):
        eigen_coeffs(bm, dom, lam)
    with pytest.raises(ValidationError):
        StepPacket.box(-1.0, -0.5, 1.0).transform(lam)
