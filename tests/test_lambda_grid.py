"""The lambda rule: a scalar lambda rounds exactly like its element of the
array call, and the CLI and verify evaluate each lambda grid in one call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogap import cli, eigen, verify
from twogap.domain import make_boundary_matrix, make_domain
from twogap.eigen import eigen_coeffs, eigen_residual, eigenfunction_traces, scattering_matrix_routes
from twogap.rkhs import BoundaryTrace, boundary_form, trace_condition_residuals
from twogap.spectral import density

phase = st.floats(0.0, 1.0)
lams = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40)


@st.composite
def models(draw):
    alpha = draw(st.floats(1.05, 4.0))
    dom = make_domain(alpha, alpha + draw(st.floats(0.05, 3.0)))
    bm = make_boundary_matrix(
        w=draw(st.floats(0.01, 1.0)), theta=draw(phase), phi=draw(phase), psi=draw(phase)
    )
    return bm, dom


def _same(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@given(models(), lams)
@settings(max_examples=150, deadline=None)
def test_scalar_call_is_its_element_of_the_array_call(model, grid):
    bm, dom = model
    grid = np.array(grid)
    co = eigen_coeffs(bm, dom, grid)
    residual = eigen_residual(bm, dom, co)
    routes = scattering_matrix_routes(bm, dom, grid)
    rho1, rho2 = eigenfunction_traces(bm, dom, grid)
    rho = density(bm, dom, grid)
    for i, la in enumerate(grid):
        one = eigen_coeffs(bm, dom, la)
        for name in ("lam", "a", "c", "h", "m"):
            _same(getattr(one, name), getattr(co, name)[i])
        _same(eigen_residual(bm, dom, one), residual[i])
        for name, value in scattering_matrix_routes(bm, dom, float(la)).items():
            _same(value, routes[name][i])
        r1, r2 = eigenfunction_traces(bm, dom, la)
        assert r1.shape == r2.shape == (2,)
        _same(r1, rho1[:, i])
        _same(r2, rho2[:, i])
        _same(density(bm, dom, la), rho[i])


@given(models(), lams)
@settings(max_examples=60, deadline=None)
def test_stacked_traces_match_their_columns(model, grid):
    bm, dom = model
    gl, gr = eigenfunction_traces(bm, dom, np.array(grid))
    tr = BoundaryTrace(gr[0], gl[0], gr[1], gl[1])
    direct, inverse = trace_condition_residuals(bm, tr)
    form = boundary_form(tr, tr)
    assert direct.shape == inverse.shape == form.shape == (len(grid),)
    for i in range(len(grid)):
        one = BoundaryTrace(gr[0, i], gl[0, i], gr[1, i], gl[1, i])
        d1, d2 = trace_condition_residuals(bm, one)
        f1 = boundary_form(one, one)
        assert isinstance(d1, float) and isinstance(d2, float) and isinstance(f1, complex)
        assert d1 == direct[i] and d2 == inverse[i]
        assert f1 == form[i]


def test_boundary_form_pairs_stacked_traces():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(2, 4, 5)) + 1j * rng.normal(size=(2, 4, 5))
    form = boundary_form(BoundaryTrace(*values[0]), BoundaryTrace(*values[1]))
    for i in range(5):
        assert boundary_form(BoundaryTrace(*values[0, :, i]), BoundaryTrace(*values[1, :, i])) == form[i]


def test_route_spread_is_elementwise(generic):
    bm, dom = generic
    routes = scattering_matrix_routes(bm, dom, np.linspace(-2.0, 2.0, 9))
    spread = eigen._route_spread(routes)
    assert spread.shape == (9,)
    for i in range(9):
        column = {name: value[i : i + 1] for name, value in routes.items()}
        _same(eigen._route_spread(column), spread[i : i + 1])


@pytest.mark.parametrize("command", ["eigen", "smatrix", "scatter", "kernels", "verify"])
def test_one_call_per_lambda_grid(monkeypatch, tmp_path, command):
    """Each command evaluates its lambda grid in one eigen_coeffs or
    scattering_matrix_routes call, never one call per lambda."""
    calls = []

    def counted(fn):
        def wrapper(bm, domain, lam):
            calls.append(np.size(lam))
            return fn(bm, domain, lam)

        return wrapper

    for module in (cli, verify, eigen):
        for name in ("eigen_coeffs", "scattering_matrix_routes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert cli.main([command, "--scenario", "comb_limit", "--out", str(tmp_path)]) == 0
    # every call spans the 21-point comb_limit grid, but verify's one read of m(0)
    assert calls and set(calls) <= {21, 1}
    assert calls.count(1) == (command == "verify")
    assert len(calls) <= 4
