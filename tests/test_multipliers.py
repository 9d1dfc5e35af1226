"""Translation-series multipliers: closed forms, algebra, spatial action."""

import itertools

import numpy as np
import pytest

from twogap.domain import e2pi, make_boundary_matrix, make_domain
from twogap.errors import DegenerateRegime, ValidationError
from twogap.evolution import block_row, evolve, scatter, translation_representation
from twogap.multipliers import (
    BLOCK_KIND,
    MAX_WINDOW_TERMS,
    MULTIPLIER_KINDS,
    causal_terms,
    _geom_terms,
    _underflow_index,
    make_multiplier,
    train_terms,
)
from twogap.semigroup import compress_evolve
from twogap.spectral import fourier_coeffs
from twogap.packets import StepPacket

from conftest import apply_series, cut_series, random_boundary, random_geometry, random_packet

LAM = np.linspace(-3.7, 4.1, 113)


def coeff_a(bm, dom, lam):
    return (
        e2pi(bm.phi) / bm.w
        * e2pi(lam)
        * (1.0 - bm.q * e2pi(-bm.psi + dom.ell * lam))
    )


def coeff_c(bm, dom, lam):
    return (
        e2pi(bm.phi - bm.theta) / bm.w
        * e2pi(-dom.gap * lam)
        * (1.0 - bm.q * e2pi(bm.psi - dom.ell * lam))
    )


CLOSED_FORMS = {
    "a_inv": lambda bm, dom, lam: 1.0 / coeff_a(bm, dom, lam),
    "c_inv": lambda bm, dom, lam: 1.0 / coeff_c(bm, dom, lam),
    "a_conj_inv": lambda bm, dom, lam: 1.0 / np.conj(coeff_a(bm, dom, lam)),
    "c_conj_inv": lambda bm, dom, lam: 1.0 / np.conj(coeff_c(bm, dom, lam)),
    "a_inv_c": lambda bm, dom, lam: coeff_c(bm, dom, lam) / coeff_a(bm, dom, lam),
    "c_inv_a": lambda bm, dom, lam: coeff_a(bm, dom, lam) / coeff_c(bm, dom, lam),
    "m_squared_inv": lambda bm, dom, lam: 1.0 / np.abs(coeff_a(bm, dom, lam)) ** 2,
}


@pytest.mark.parametrize("kind", MULTIPLIER_KINDS)
def test_series_matches_closed_form(kind):
    rng = np.random.default_rng(101)
    for _ in range(5):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        m = cut_series(bm, dom, kind, eps=1e-13)
        got = m.value(LAM)
        want = CLOSED_FORMS[kind](bm, dom, LAM)
        assert np.max(np.abs(got - want)) < 1e-11


def test_density_series_is_real_even_lattice():
    bm = make_boundary_matrix(w=np.sqrt(3.0) / 2.0)
    dom = make_domain(2.0, 3.0)
    m = cut_series(bm, dom, "m_squared_inv")
    # zero phases: coefficients are q^|k|, real and symmetric
    coeffs = dict(zip(m.indices.tolist(), m.coeffs))
    for k, c in coeffs.items():
        assert c == pytest.approx(0.5 ** abs(k))
        assert coeffs[-k] == pytest.approx(np.conj(c))
    assert m.value(0.0) == pytest.approx(3.0, abs=1e-12)
    assert m.value(0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_transform_intertwines_spatial_action():
    # the defining property: (M f)^ = M(lambda) f^(lambda)
    rng = np.random.default_rng(7)
    for _ in range(4):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        f = random_packet(rng, freqs=(-1, 0, 2))
        for kind in ("a_inv", "a_inv_c", "m_squared_inv", "c_inv"):
            m = cut_series(bm, dom, kind, eps=1e-13)
            g = apply_series(m, f)
            lhs = g.transform(LAM)
            rhs = m.value(LAM) * f.transform(LAM)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_apply_matches_manual_translates():
    rng = np.random.default_rng(21)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    m = cut_series(bm, dom, "a_inv", eps=1e-12)
    # the second packet's oscillatory cells pick up a phase per translate
    for f in (random_packet(rng), random_packet(rng, freqs=(-1, 0, 2))):
        # (M f)(x) = scalar sum_n c_n f(x + base + n step) = sum c_n T_{-base-n step} f
        manual = StepPacket.zero()
        for n, c in zip(m.indices.tolist(), m.coeffs):
            manual = manual + f.translate(-(m.base_shift + n * m.step)).scale(m.scalar * c)
        assert apply_series(m, f).distance2(manual) < 1e-24


def test_apply_oscillatory_cell_phase():
    # translating a frequency-n cell must pick up e(n * shift)
    dom = make_domain(2.0, 3.0)
    bm = make_boundary_matrix(w=0.6, psi=0.3)
    f = StepPacket.box(0.0, 1.0, 1.0, freq=2)
    m = cut_series(bm, dom, "a_inv", eps=1e-3)
    g = apply_series(m, f)
    xs = np.array([1.2, 1.7, 2.4])
    want = m.scalar * sum(c * f.sample(xs + m.base_shift + n * m.step) for n, c in zip(m.indices, m.coeffs))
    assert np.max(np.abs(g.sample(xs) - want)) < 1e-13


MIRRORED_PAIRS = [("a_conj_inv", "a_inv"), ("c_conj_inv", "c_inv"), ("c_inv_a", "a_inv_c")]


def test_conjugate_is_pointwise_conjugate():
    # each mirrored kind, written out as its own row, is its partner's conjugate
    rng = np.random.default_rng(3)
    for _ in range(4):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        for kind, partner in MIRRORED_PAIRS:
            m, mp = cut_series(bm, dom, kind), cut_series(bm, dom, partner)
            assert np.max(np.abs(m.value(LAM) - np.conj(mp.value(LAM)))) < 1e-13


def _cut_arrays(bm, dom, kind):
    m = cut_series(bm, dom, kind)
    return (m.indices, *m.terms())


def test_mirrored_terms_are_partner_terms_reflected():
    # index n <-> -n: shifts negated, weights conjugated (equal as values,
    # so a zero imaginary part may carry either sign)
    rng = np.random.default_rng(17)
    for _ in range(4):
        bm = random_boundary(rng)
        dom = random_geometry(rng)
        for (kind, partner), build in itertools.product(MIRRORED_PAIRS, (_cut_arrays, train_terms)):
            (ns, shifts, weights), (partner_ns, partner_shifts, partner_weights) = (
                build(bm, dom, kind),
                build(bm, dom, partner),
            )
            assert np.array_equal(ns, -partner_ns[::-1])
            assert np.array_equal(shifts, -partner_shifts[::-1])
            assert np.array_equal(weights, np.conj(partner_weights[::-1]))


def test_coefficient_times_inverse_is_one():
    rng = np.random.default_rng(11)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    a = coeff_a(bm, dom, LAM)
    a_inv = cut_series(bm, dom, "a_inv", eps=1e-13)
    # a * a^-1 = 1 up to the declared truncation tail, scaled by |a|
    assert np.all(np.abs(a * a_inv.value(LAM) - 1.0) < np.abs(a) * a_inv.tail + 1e-12)


def test_scattering_quotients_are_reciprocal():
    # |a| = |c| on the real axis, so (c/a) * (a/c) = 1 exactly
    rng = np.random.default_rng(13)
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    m1 = cut_series(bm, dom, "a_inv_c", eps=1e-13)
    m2 = cut_series(bm, dom, "c_inv_a", eps=1e-13)
    # both are unimodular, so each truncation tail enters once
    tails = m1.tail + m2.tail + m1.tail * m2.tail
    assert np.max(np.abs(m1.value(LAM) * m2.value(LAM) - 1.0)) < tails + 1e-11


@pytest.mark.parametrize("dest,src", sorted(BLOCK_KIND))
def test_block_entry_two_routes(dest, src):
    # the (dest, src) entry is a_dest conj(a_src) / |a|^2 with
    # (a_-, a_0, a_+) = (a, 1, c)
    rng = np.random.default_rng(sum(map(ord, dest + src)))
    bm = random_boundary(rng)
    dom = random_geometry(rng)
    a, c = coeff_a(bm, dom, LAM), coeff_c(bm, dom, LAM)
    factor = {"iminus": a, "izero": 1.0, "iplus": c}
    closed = factor[dest] * np.conj(factor[src]) / np.abs(a) ** 2
    if BLOCK_KIND[(dest, src)] == "identity":  # no series: the part itself
        assert np.max(np.abs(closed - 1.0)) < 1e-11
        return
    direct = cut_series(bm, dom, BLOCK_KIND[(dest, src)], eps=1e-13)
    assert np.max(np.abs(direct.value(LAM) - closed)) < direct.tail + 1e-11


def test_block_entry_unknown_component():
    bm = make_boundary_matrix(w=0.5)
    dom = make_domain(2.0, 3.0)
    parts = (StepPacket.box(-1.0, -0.5, 1.0), StepPacket.zero(), StepPacket.zero())
    with pytest.raises(ValidationError):
        block_row(bm, dom, parts, "nowhere", span=(0.0, 1.0))


def test_decoupled_regime_rejected():
    bm = make_boundary_matrix(w=0.0, theta=0.25)
    dom = make_domain(2.0, 3.0)
    with pytest.raises(DegenerateRegime):
        train_terms(bm, dom, "a_inv")


def test_unknown_kind_rejected():
    bm = make_boundary_matrix(w=0.5)
    dom = make_domain(2.0, 3.0)
    with pytest.raises(ValidationError):
        train_terms(bm, dom, "b_inv")


def test_bad_eps_rejected():
    # the one sizer of a cut window, and the density table that reads it
    bm = make_boundary_matrix(w=0.5)
    dom = make_domain(2.0, 3.0)
    for eps in (0.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            _geom_terms(bm.q, eps)
        with pytest.raises(ValidationError):
            fourier_coeffs(bm, dom, eps)


def test_series_are_built_once_and_shared():
    bm = make_boundary_matrix(w=0.4, psi=0.37)
    dom = make_domain(2.3, 3.1)
    m = make_multiplier(bm, dom, 1e-12)
    assert make_multiplier(bm, dom, 1e-12) is m
    assert make_multiplier(bm, dom, 1e-11) is not m
    # shared, so read-only: a write would reach every later caller
    for values in (m.indices, m.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0


def test_cut_window_has_a_size_cap():
    # the density table's window (1e-12 over both sides) fits at w = 1e-2;
    # at w = 1e-3 it would need about 85 million terms
    assert _geom_terms(make_boundary_matrix(w=1e-2).q, 0.5e-12) == 764_514 <= MAX_WINDOW_TERMS
    q = make_boundary_matrix(w=1e-3).q
    with pytest.raises(DegenerateRegime, match=r"eps = 5e-13 at q = 0\.99999\d+ needs \d{8} terms"):
        _geom_terms(q, 0.5e-12)


def test_tail_bound_is_honest():
    bm = make_boundary_matrix(w=0.4, psi=0.37)
    dom = make_domain(2.3, 3.1)
    crude = cut_series(bm, dom, "a_inv", eps=1e-5)
    fine = cut_series(bm, dom, "a_inv", eps=1e-15)
    gap = np.max(np.abs(crude.value(LAM) - fine.value(LAM)))
    assert gap <= crude.tail + 1e-13
    assert crude.tail <= 1e-5 * 1.000001


def test_shifts_follow_lattice():
    bm = make_boundary_matrix(w=0.5, psi=0.1)
    dom = make_domain(2.5, 4.0)
    shifts = cut_series(bm, dom, "a_inv", eps=1e-10).terms()[0]
    assert shifts[0] == pytest.approx(-1.0)
    assert np.allclose(np.diff(shifts), dom.ell)


@pytest.mark.parametrize("w", [1.0, 0.7, 0.2])
@pytest.mark.parametrize("kind", MULTIPLIER_KINDS)
def test_causal_terms_are_series_terms(kind, w):
    # one generator: a window's terms are terms of the eps series, bit for
    # bit, and exactly the indices whose image meets the window
    bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45)
    dom = make_domain(2.25, 3.75)
    full = cut_series(bm, dom, kind, eps=1e-15)
    support, window = (-1.3, -0.2), (-4.0, 6.5)
    counts, shifts, weights = causal_terms(bm, dom, [(kind, support, window)])
    assert counts == [len(shifts)] == [len(weights)]
    full_shifts, full_weights = full.terms()
    at = {n: i for i, n in enumerate(full.indices.tolist())}
    reaching = {
        n for n in at
        if support[0] - full_shifts[at[n]] < window[1] and support[1] - full_shifts[at[n]] > window[0]
    }
    ns = [n for n in at if full_shifts[at[n]] in shifts]
    assert reaching <= set(ns) and len(ns) == len(shifts) <= len(reaching) + 2
    i = at[min(ns)]
    assert shifts.tobytes() == full_shifts[i : i + len(ns)].tobytes()
    assert weights.tobytes() == full_weights[i : i + len(ns)].tobytes()


@pytest.mark.parametrize("w", [0.9, 0.5, 0.05])
def test_series_weights_are_scalar_arithmetic(w):
    # the array code keeps the bits of the scalar loop: Python's float pow
    # and complex product (numpy's vectorized ones differ in the last bit);
    # the window holds every term of the series cut at 1e-12
    bm = make_boundary_matrix(w=w, theta=0.15, phi=0.3, psi=0.45)
    dom = make_domain(2.25, 3.75)
    for kind in ("a_inv", "m_squared_inv"):
        m = cut_series(bm, dom, kind)
        lo, hi = m.terms()[0][[0, -1]]
        _, shifts, weights = causal_terms(bm, dom, [(kind, (0.0, 0.0), (-hi, -lo))])
        assert len(shifts) >= len(m.coeffs)
        ns = np.rint((shifts - m.base_shift) / dom.ell).astype(int).tolist()
        want = [m.scalar * (bm.q ** abs(n) * complex(e2pi(-n * bm.psi))) for n in ns]
        assert weights.tobytes() == np.array(want, dtype=complex).tobytes()


def test_causal_needs_a_lattice_series():
    bm = make_boundary_matrix(w=0.5)
    dom = make_domain(2.0, 3.0)
    for kind in ("identity", "a", "c", "nonsense"):
        with pytest.raises(ValidationError):
            causal_terms(bm, dom, [("a_inv", (-1.0, 0.0), (0.0, 1.0)), (kind, (-1.0, 0.0), (0.0, 1.0))])
    with pytest.raises(DegenerateRegime):
        causal_terms(make_boundary_matrix(w=0.0), dom, [("a_inv", (-1.0, 0.0), (0.0, 1.0))])


@pytest.mark.parametrize("w", [0.9, 0.05, 1e-2, 1e-3, 1e-4, 1e-6])
def test_underflow_index_is_the_last_nonzero_power(w):
    # the search starts at the underflow boundary, so even w = 1e-6
    # (n about 1.5e15) takes a step or two
    q = make_boundary_matrix(w=w).q
    n = _underflow_index(q)
    assert q**n > 0.0 and q ** (n + 1) == 0.0


_Q_ONE = make_boundary_matrix(w=1e-9, psi=0.3)  # 1 - w^2 rounds to 1, so q = 1
_Q_ONE_F = StepPacket.box(-1.0, -0.5, 1.0) + StepPacket.box(1.2, 1.5, 1.0)


@pytest.mark.parametrize(
    "route",
    [
        lambda dom: evolve(_Q_ONE, dom, _Q_ONE_F, 3.0),
        lambda dom: evolve(_Q_ONE, dom, StepPacket.zero(), 3.0),
        lambda dom: scatter(_Q_ONE, dom, StepPacket.box(-1.0, -0.5, 1.0)),
        lambda dom: translation_representation(_Q_ONE, dom, _Q_ONE_F, "+"),
        lambda dom: translation_representation(_Q_ONE, dom, _Q_ONE_F, "-"),
        lambda dom: fourier_coeffs(_Q_ONE, dom),
        lambda dom: make_multiplier(_Q_ONE, dom),
        lambda dom: train_terms(_Q_ONE, dom, "c_inv_a"),
        lambda dom: causal_terms(_Q_ONE, dom, []),
    ],
    ids=["evolve", "evolve_zero", "scatter", "rep_plus", "rep_minus", "fourier", "make", "train", "causal"],
)
def test_q_one_is_a_degenerate_regime(route):
    with pytest.raises(DegenerateRegime, match="q = 1"):
        route(make_domain(2.0, 3.0))


def test_q_one_compressed_evolution_reads_no_series():
    g = compress_evolve(_Q_ONE, make_domain(2.0, 3.0), StepPacket.box(1.2, 1.5, 1.0), 2.0)
    assert g.packet.norm2() <= StepPacket.box(1.2, 1.5, 1.0).norm2() * (1.0 + 1e-14)
