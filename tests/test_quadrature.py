"""The mapped midpoint rule for one period of the spectral density."""

import math

import numpy as np
import pytest

from twogap.domain import make_boundary_matrix, make_domain
from twogap.errors import DegenerateRegime, ValidationError
from twogap.quadrature import MAX_FOLD_NODES, fold_nodes, gauss_panels
from twogap.spectral import density

_UNIT = make_domain(2.0, 3.0)


def _phi(bm, xi):
    """The map's own variable at xi: tan(phi/2) = K tan(pi (xi - psi))."""
    k = (1.0 + bm.q) / bm.w
    d = np.pi * (np.asarray(xi) - bm.psi)
    return 2.0 * np.arctan2(k * np.sin(d), np.cos(d))


@pytest.mark.parametrize("span", [0.0, 7.0])
def test_fold_nodes_grow_like_one_over_w(span):
    # the plain periodic rule needs about 2 ln(1/tol)/w^2 nodes; the mapped
    # rule's count times w stays bounded as the spike sharpens
    for w in (0.5, 0.2, 0.05, 0.02, 0.01):
        xi, _ = fold_nodes(make_boundary_matrix(w, psi=0.3), span=span)
        assert len(xi) * w <= (45.0 if span == 0.0 else 70.0)


@pytest.mark.parametrize("w", [0.9, 0.5, 0.2, 0.05])
def test_fold_weights_integrate_the_density(w):
    for psi in (0.0, 0.25, 0.45, 0.5):
        bm = make_boundary_matrix(w, theta=0.2, phi=0.7, psi=psi)
        xi, wts = fold_nodes(bm)
        assert np.all((xi > -0.5) & (xi <= 0.5))
        assert abs(np.sum(wts * density(bm, _UNIT, xi)) - 1.0) <= 1e-13


def test_fold_nodes_at_q_zero_are_the_plain_rule():
    for psi in (0.0, 0.3, 0.5):
        for span in (0.0, 2.5):
            xi, wts = fold_nodes(make_boundary_matrix(1.0, psi=psi), span=span)
            n = math.ceil(span) + 2
            plain = (np.arange(n) + 0.5) / n
            plain -= np.ceil(plain - 0.5)
            assert np.allclose(np.sort(xi), np.sort(plain), rtol=0.0, atol=1e-15)
            assert np.allclose(wts, 1.0 / n, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("w", [0.5, 0.05])
def test_pole_lies_midway_between_nodes(w):
    # xi = 0 is the removable pole of the lattice sums; the spike can sit on it
    for psi in (0.0, 0.25, 0.45, 0.5):
        bm = make_boundary_matrix(w, psi=psi)
        xi, _ = fold_nodes(bm, span=3.0)
        n = len(xi)
        assert np.min(np.abs(xi)) > 0.0
        offsets = np.sort((_phi(bm, xi) - _phi(bm, 0.0)) % (2.0 * np.pi))
        assert np.max(np.abs(offsets - 2.0 * np.pi * (np.arange(n) + 0.5) / n)) < 1e-9


def test_fold_nodes_need_coupling():
    with pytest.raises(DegenerateRegime):
        fold_nodes(make_boundary_matrix(0.0))


@pytest.mark.parametrize("w", [0.5, 1.0])
def test_fold_nodes_refuse_a_bad_tolerance_or_span(w):
    # unchecked, a tolerance outside (0, 1) divides by zero or takes the log
    # of a negative (and goes unread at w = 1), span inf overflows, and a
    # negative span returns a short rule (1 node at w = 0.5, none at w = 1)
    bm = make_boundary_matrix(w, psi=0.3)
    for tol in (0.0, -1e-3, 1.0, 2.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="tolerance"):
            fold_nodes(bm, tol=tol)
    for span in (math.inf, -math.inf, math.nan, -50.0, -1e-9):
        with pytest.raises(ValidationError, match="span"):
            fold_nodes(bm, span=span)


def test_gauss_panels_refuse_non_finite_edges():
    for edges in ([0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [-math.inf, 0.0], [math.nan, 1.0]):
        with pytest.raises(ValidationError, match="finite"):
            gauss_panels(np.cos, edges)
    assert abs(gauss_panels(np.cos, [0.0, 0.5, 1.0]) - math.sin(1.0)) < 1e-15


@pytest.mark.parametrize("w", [1.0, 0.5])
@pytest.mark.parametrize("span", [1e17, 1e308])
def test_fold_nodes_refuse_an_oversized_rule(w, span):
    # a rule of more than MAX_FOLD_NODES nodes is refused before it is built,
    # and a sizing that overflows is refused the same way (these spans used
    # to raise MemoryError, OverflowError or ValueError)
    with pytest.raises(DegenerateRegime, match=f"more than {MAX_FOLD_NODES}"):
        fold_nodes(make_boundary_matrix(w, psi=0.3), span=span)
