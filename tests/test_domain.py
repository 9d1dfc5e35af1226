import numpy as np
import pytest

from twogap.domain import (
    Region,
    classify_point,
    e2pi,
    make_boundary_matrix,
    make_domain,
)
from twogap.errors import OrderingViolation, RangeViolation


def test_e2pi_basics():
    assert e2pi(0.0) == 1.0
    assert abs(e2pi(0.5) + 1.0) < 1e-15
    assert abs(e2pi(0.25) - 1j) < 1e-15
    # array input, unit modulus
    x = np.linspace(-3, 3, 17)
    assert np.allclose(np.abs(e2pi(x)), 1.0)
    assert np.allclose(e2pi(x + 1.0), e2pi(x))


def test_domain_fields():
    dom = make_domain(2.5, 4.0)
    assert dom.ell == 1.5
    assert dom.gap == 1.5
    assert dom.component("izero") == (1.0, 2.5)
    assert dom.component("iplus") == (4.0, np.inf)


@pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (0.5, 3.0), (2.0, 2.0), (3.0, 2.5)])
def test_domain_ordering_rejected(alpha, beta):
    with pytest.raises(OrderingViolation):
        make_domain(alpha, beta)


def test_classify_point():
    dom = make_domain(2.0, 3.0)
    assert classify_point(dom, -1.0) is Region.I_MINUS
    assert classify_point(dom, 0.5) is Region.BARRIER_1
    assert classify_point(dom, 1.5) is Region.I_ZERO
    assert classify_point(dom, 2.5) is Region.BARRIER_2
    assert classify_point(dom, 7.0) is Region.I_PLUS
    assert classify_point(dom, 0.0) is Region.BOUNDARY
    assert classify_point(dom, 3.0) is Region.BOUNDARY


def test_boundary_matrix_unitary():
    rng = np.random.default_rng(0)
    for _ in range(25):
        bm = make_boundary_matrix(
            w=rng.uniform(0, 1), theta=rng.uniform(), phi=rng.uniform(), psi=rng.uniform()
        )
        mat = bm.matrix()
        assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-14)
        assert abs(np.linalg.det(mat) - bm.det_phase) < 1e-14


def test_regime_dispatch_is_exact():
    assert make_boundary_matrix(w=0.0, theta=0.3).regime == "decoupled"
    assert make_boundary_matrix(w=1.0, theta=0.3).regime == "transparent"
    assert make_boundary_matrix(w=1.0 - 1e-15, theta=0.3).regime == "generic"


def test_boundary_matrix_range_rejected():
    with pytest.raises(RangeViolation):
        make_boundary_matrix(w=1.5)
    with pytest.raises(RangeViolation):
        make_boundary_matrix(w=-0.1)

