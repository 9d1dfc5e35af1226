"""Spectral density, Fourier coefficient tables, measure classification."""

import time

import numpy as np
import pytest

from twogap.domain import make_boundary_matrix, make_domain
from twogap.eigen import bound_state_spectrum, eigen_coeffs
from twogap.errors import DegenerateRegime, ValidationError
from twogap.multipliers import make_multiplier
from twogap.spectral import (
    SpectralDensity,
    comb_limit_diagnostic,
    density,
    fourier_coeffs,
    period_integral,
)

from conftest import cut_series, random_boundary, random_geometry


def test_half_coupling_density_anchors(ex59):
    # frozen by hand for w = sqrt(3)/2: rho(0) = 3, rho(1/2) = 1/3
    bm, dom = ex59
    assert density(bm, dom, 0.0) == pytest.approx(3.0, abs=1e-14)
    assert density(bm, dom, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_density_is_inverse_square_modulus():
    rng = np.random.default_rng(50)
    lam = np.linspace(-4.0, 4.0, 301)
    for _ in range(10):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        rho = density(bm, dom, lam)
        m = eigen_coeffs(bm, dom, lam).m
        # relative: the peak grows like 4/w^2, so scale the float budget
        assert np.max(np.abs(rho - 1.0 / m**2)) < 1e-13 * np.max(rho)


def test_density_bounds_and_period():
    rng = np.random.default_rng(51)
    for _ in range(10):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        rho = SpectralDensity(bm, dom)
        lo, hi = rho.bounds()
        lam = np.linspace(0.0, rho.period, 501)
        vals = rho(lam)
        assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)
        # extremes are attained at psi/ell and psi/ell + period/2
        assert rho(bm.psi / dom.ell) == pytest.approx(hi, abs=1e-12)
        assert rho(bm.psi / dom.ell + 0.5 / dom.ell) == pytest.approx(lo, abs=1e-12)
        # periodicity (scale by the peak; it can be ~4/w^2)
        assert np.max(np.abs(rho(lam + rho.period) - vals)) < 1e-13 * hi


def test_period_integral_is_inverse_ell():
    rng = np.random.default_rng(52)
    for _ in range(20):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        assert period_integral(bm, dom) == pytest.approx(1.0 / dom.ell, abs=1e-10)
    # weak coupling: density spikes of height ~4/w^2 and width ~w^2; near
    # them 1 - 2q cos + q^2 cancels to ~w^4/4, and only a density free of
    # that cancellation stays inside the default tol = 1e-12
    for w in (0.2, 0.1, 0.05):
        for psi in (0.0, 0.25, rng.uniform(0.0, 1.0)):
            bm = make_boundary_matrix(w=w, theta=0.3, phi=0.6, psi=psi)
            dom = random_geometry(rng)
            assert period_integral(bm, dom) == pytest.approx(1.0 / dom.ell, abs=1e-12)


def test_density_rejects_decoupled():
    bm = make_boundary_matrix(w=0.0, psi=0.25)
    dom = make_domain(2.0, 3.0)
    with pytest.raises(DegenerateRegime):
        density(bm, dom, 0.0)
    with pytest.raises(DegenerateRegime):
        fourier_coeffs(bm, dom)


def test_fourier_table_half_coupling(ex59):
    bm, dom = ex59
    table = fourier_coeffs(bm, domain=dom, tol=0.01)
    assert np.array_equal(table.k, np.arange(-8, 9))
    assert np.allclose(table.values, 0.5 ** np.abs(table.k))
    assert table.step == dom.ell
    assert table.tail == pytest.approx(2.0 * 0.5**9 / 0.5)


def test_fourier_table_synthesizes_density():
    rng = np.random.default_rng(53)
    lam = np.linspace(-2.0, 2.0, 101)
    for _ in range(5):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        table = fourier_coeffs(bm, domain=dom, tol=1e-13)
        synth = np.zeros_like(lam, dtype=complex)
        for k, a_k in zip(table.k, table.values):
            # density(lam) = sum_k a_k e(k ell lam - ... ); coefficients carry e(-k psi)
            synth += a_k * np.exp(2j * np.pi * k * dom.ell * lam)
        assert np.max(np.abs(synth - density(bm, dom, lam))) < 1e-11


def test_fourier_auto_window_honors_tol():
    bm = make_boundary_matrix(w=0.5, psi=0.3)
    dom = make_domain(2.0, 3.0)
    table = fourier_coeffs(bm, domain=dom, tol=1e-9)
    assert table.tail <= 1e-9
    # the smallest such window: one coefficient fewer leaves a tail above tol
    K, q = int(table.k[-1]), bm.q
    assert 2.0 * q**K / (1.0 - q) > 1e-9
    with pytest.raises(ValidationError):
        fourier_coeffs(bm, domain=dom, tol=0.0)


@pytest.mark.parametrize("w", [0.5, 0.2, np.sqrt(3.0) / 2.0])
def test_fourier_table_is_the_density_series(w):
    # one generator writes q^|k| e(-k psi): the table is the m_squared_inv
    # series (scalar 1, base 0) as applied, bit for bit
    bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45)
    dom = make_domain(2.25, 3.75)
    table = fourier_coeffs(bm, domain=dom)
    series = cut_series(bm, dom, "m_squared_inv")
    shifts, weights = series.terms()
    assert (series.scalar, series.base_shift) == (1.0, 0.0)
    assert np.array_equal(table.k, np.rint(shifts / dom.ell))
    assert table.values.tobytes() == weights.tobytes()
    assert (table.step, table.tail) == (dom.ell, series.tail)
    # the table's arrays are the cached density window's own, read-only
    assert table.values is make_multiplier(bm, dom, 1e-12).coeffs


def test_fourier_table_past_the_size_cap_is_refused_at_once():
    # w = 1e-3 would need a window of about 85 million terms at 1e-12
    bm = make_boundary_matrix(w=1e-3, psi=0.3)
    start = time.perf_counter()
    with pytest.raises(DegenerateRegime, match="terms"):
        fourier_coeffs(bm, make_domain(2.0, 3.0))
    assert time.perf_counter() - start < 0.5


def test_normalization_identity():
    # m(0)^-2 = sum_k a_k e(k psi)|_{lam=0}: at psi = 0 the plain total works
    bm = make_boundary_matrix(w=0.7)
    dom = make_domain(2.0, 3.0)
    table = fourier_coeffs(bm, domain=dom, tol=1e-14)
    m0_sq = float(eigen_coeffs(bm, dom, 0.0).m) ** 2
    assert m0_sq * np.real(table.total()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("tol", [1e-2, 1e-12])
@pytest.mark.parametrize("w, psi", [(0.7, 0.0), (0.5, 0.3), (0.2, 0.45)])
def test_table_total_adds_the_exact_remainder(w, psi, tol):
    # the listed coefficients stop at a tail of tol; total() adds the rest
    # in closed form, so m(0)^2 times it is 1 to the rounding of a pairwise
    # sum of the listed terms, whatever the cut
    bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=psi)
    dom = make_domain(2.25, 3.75)
    table = fourier_coeffs(bm, domain=dom, tol=tol)
    m0_sq = float(eigen_coeffs(bm, dom, 0.0).m) ** 2
    rounding = np.finfo(float).eps * np.log2(len(table.k)) * np.sum(np.abs(table.values))
    assert abs(m0_sq * table.total() - 1.0) < m0_sq * rounding


def test_comb_limit_monotone():
    dom = make_domain(2.0, 3.0)
    recs = comb_limit_diagnostic(dom, w_sequence=[0.5, 0.1, 0.02], window_width=0.1)
    masses = [r["window_mass"] for r in recs]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    for r in recs:
        assert r["period_mass"] == pytest.approx(1.0, abs=1e-15)
        assert r["off_window"] == pytest.approx(r["period_mass"] - r["window_mass"])
    # nearly all mass is inside the window by w = 0.02
    assert masses[-1] > 0.99


def test_comb_window_mass_matches_quadrature():
    # cross-check the closed-form antiderivative against brute summation
    # at a moderate w where the density is tame
    dom = make_domain(2.5, 3.0)  # ell = 1.5
    psi, w = 0.2, 0.6
    recs = comb_limit_diagnostic(dom, w_sequence=[w], window_width=0.25)
    bm = make_boundary_matrix(w, psi=psi)
    center = psi / dom.ell
    edges = np.linspace(center - 0.125, center + 0.125, 200001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    brute = float(np.sum(density(bm, dom, mids)) * (edges[1] - edges[0]))
    assert recs[0]["window_mass"] == pytest.approx(brute, abs=1e-8)


def test_comb_window_validation():
    dom = make_domain(2.0, 3.0)
    with pytest.raises(ValidationError):
        comb_limit_diagnostic(dom, w_sequence=[0.5], window_width=1.5)


def test_measure_dispatch():
    dom = make_domain(2.0, 3.0)
    # w > 0: absolutely continuous, with the density's period 1/ell
    assert SpectralDensity(make_boundary_matrix(w=0.8), dom).period == pytest.approx(1.0)
    # w = 0: atoms on the lattice (psi + n)/ell
    atoms = bound_state_spectrum(make_boundary_matrix(w=0.0, psi=0.25), dom, 0, 3)
    assert np.allclose(atoms, [0.25, 1.25, 2.25])
