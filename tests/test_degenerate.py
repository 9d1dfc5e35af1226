"""One-point, one-interval and two-point obstacle families."""

import numpy as np
import pytest

from twogap.degenerate import (
    OneIntervalModel,
    OnePointModel,
    TwoPointsModel,
    conjugation_residual,
    degenerate_V,
    degenerate_Vstar,
    degenerate_evolve,
    isometry_ratio,
    two_points_abs2_routes,
    two_points_bounds,
    two_points_multiplier,
)
from twogap.domain import e2pi, make_boundary_matrix
from twogap.errors import SupportViolation, ValidationError
from twogap.evolution import evolve
from twogap.packets import StepPacket

from conftest import random_geometry, random_packet

POINT = OnePointModel(theta=0.3)
INTERVAL = OneIntervalModel(theta=0.55, alpha=1.5)
TWOPT = TwoPointsModel(w=np.sqrt(3.0) / 2.0, alpha=2.0)


def free_packet(rng):
    return random_packet(rng, lo=-4.0, hi=4.0, n_cells=4, freqs=(0, 1))


@pytest.mark.parametrize("model", [POINT, INTERVAL], ids=["point", "interval"])
def test_conjugation_to_translation(model):
    rng = np.random.default_rng(120)
    for _ in range(4):
        f = free_packet(rng)
        for t in (0.0, 0.7, 3.2, -1.9):
            assert conjugation_residual(model, f, t) < 1e-13


@pytest.mark.parametrize("model", [POINT, INTERVAL], ids=["point", "interval"])
def test_unitary_models(model):
    rng = np.random.default_rng(121)
    f = free_packet(rng)
    v = degenerate_V(model, f)
    assert abs(v.norm2() - f.norm2()) < 1e-13
    assert degenerate_Vstar(model, v).distance2(f) < 1e-26
    assert isometry_ratio(model, f) == pytest.approx(1.0, abs=1e-13)


def test_point_crossing_phases():
    f = StepPacket.box(-1.0, -0.5, 1.0)
    crossed = degenerate_evolve(POINT, f, 2.0)
    assert crossed.distance2(f.translate(2.0).scale(e2pi(-POINT.theta))) < 1e-28
    back = degenerate_evolve(POINT, crossed, -2.0)
    assert back.distance2(f) < 1e-28
    # leftward crossing uses the conjugate phase
    g = StepPacket.box(0.5, 1.0, 1.0)
    lcross = degenerate_evolve(POINT, g, -2.0)
    assert lcross.distance2(g.translate(-2.0).scale(e2pi(POINT.theta))) < 1e-28


def test_interval_crossing_jump():
    f = StepPacket.box(-1.0, -0.5, 1.0 - 1.0j)
    crossed = degenerate_evolve(INTERVAL, f, 1.0)
    want = f.translate(1.0 + INTERVAL.alpha).scale(e2pi(-INTERVAL.theta))
    assert crossed.distance2(want) < 1e-28
    # straddling the crossing instant splits into the two branches
    half = degenerate_evolve(INTERVAL, f, 0.75)
    stay = f.translate(0.75).restrict(hi=0.0)
    jumped = f.translate(0.75 + INTERVAL.alpha).restrict(lo=INTERVAL.alpha).scale(
        e2pi(-INTERVAL.theta)
    )
    assert half.distance2(stay + jumped) < 1e-28
    assert abs(half.norm2() - f.norm2()) < 1e-13


def test_half_lines_are_one_interval_model():
    # at w = 0 the two half-lines are the line with [0, beta] removed, whose
    # rightward crossing phase -e(psi - theta) is e(-theta') for
    # theta' = theta - psi + 1/2
    rng = np.random.default_rng(125)
    for _ in range(4):
        bm = make_boundary_matrix(w=0.0, theta=rng.uniform(), psi=rng.uniform())
        dom = random_geometry(rng)
        model = OneIntervalModel((bm.theta - bm.psi + 0.5) % 1.0, dom.beta)
        f = random_packet(rng, lo=-3.0, hi=-0.1, freqs=(0, 1)) + random_packet(
            rng, lo=dom.beta + 0.1, hi=dom.beta + 3.0, freqs=(0, 1)
        )
        for t in (0.4, 2.7, -1.3, -5.2, 6.1):
            got = evolve(bm, dom, f, t).packet
            assert got.distance2(degenerate_evolve(model, f, t)) <= 1e-28


def test_two_points_adjointness():
    rng = np.random.default_rng(122)
    for _ in range(5):
        f = free_packet(rng)
        g = free_packet(rng)
        lhs = degenerate_V(TWOPT, f).inner(g)
        rhs = f.inner(degenerate_Vstar(TWOPT, g))
        assert abs(lhs - rhs) < 1e-12


def test_two_points_not_isometric():
    # interfering boxes across the punctures make ||Vf|| deviate from ||f||
    f1 = StepPacket.box(-2.0, -0.5, 1.0) + StepPacket.box(0.5, 1.5, 0.4 - 0.5j)
    f2 = StepPacket.box(-2.0, -0.5, 1.0)
    r1 = isometry_ratio(TWOPT, f1)
    r2 = isometry_ratio(TWOPT, f2)
    assert abs(r1 - r2) > 0.05
    vstarv = degenerate_Vstar(TWOPT, degenerate_V(TWOPT, f1))
    assert vstarv.distance2(f1) > 0.1


def test_two_points_multiplier_anchor():
    # frozen: w = sqrt(3)/2, q = 1/2 gives |a(0)| = 1/sqrt(3)
    assert abs(two_points_multiplier(TWOPT, 0.0)) == pytest.approx(
        1.0 / np.sqrt(3.0), abs=1e-12
    )


def test_two_points_abs2_routes():
    xi = np.linspace(-3.0, 3.0, 1201)
    direct, series = two_points_abs2_routes(TWOPT, xi)
    assert np.max(np.abs(direct - series)) < 1e-13
    assert np.max(np.abs(series.imag)) < 1e-13


def test_two_points_bounds_on_dense_grid():
    for w in (0.4, np.sqrt(3.0) / 2.0, 0.95):
        model = TwoPointsModel(w=w, alpha=1.7)
        bounds = two_points_bounds(model)
        lo_s, hi_s = bounds["sharp"]
        lo_l, hi_l = bounds["loose"]
        assert lo_l <= lo_s <= hi_s <= hi_l
        xi = np.linspace(-5.0, 5.0, 20001)
        mod = np.abs(two_points_multiplier(model, xi))
        assert np.all(mod >= lo_s - 1e-12)
        assert np.all(mod <= hi_s + 1e-12)
        # the envelope is tight: both edges are approached on a dense grid
        assert np.min(mod) < lo_s + 1e-3
        assert np.max(mod) > hi_s - 1e-3


def test_validation():
    with pytest.raises(ValidationError):
        TwoPointsModel(w=0.0, alpha=1.0)
    with pytest.raises(ValidationError):
        TwoPointsModel(w=1.5, alpha=1.0)
    with pytest.raises(ValidationError):
        TwoPointsModel(w=0.5, alpha=-1.0)
    with pytest.raises(ValidationError):
        OneIntervalModel(theta=0.1, alpha=0.0)
    with pytest.raises(ValidationError):
        degenerate_evolve(TWOPT, StepPacket.box(-1.0, 0.0, 1.0), 1.0)
    with pytest.raises(ValidationError):
        isometry_ratio(POINT, StepPacket.zero())
    with pytest.raises(SupportViolation):
        degenerate_evolve(INTERVAL, StepPacket.box(0.2, 0.8, 1.0), 0.5)
    with pytest.raises(ValidationError):
        degenerate_V("not a model", StepPacket.box(0.0, 1.0, 1.0))
