"""The scenario invariant battery as a library call."""

import dataclasses

import numpy as np
import pytest

from twogap.errors import TwogapError
from twogap.scenario import Scenario, bundled_scenario
from twogap.verify import render_checks, run_checks


@pytest.mark.parametrize(
    "name",
    ["example_5_9", "example_5_8", "w_zero_boundstates", "w_one_splice", "two_points"],
)
def test_bundled_scenarios_pass(name):
    results = run_checks(bundled_scenario(name))
    assert results
    failures = [r for r in results if r.status == "FAIL"]
    assert not failures, render_checks(failures)


def test_render_format():
    results = run_checks(bundled_scenario("example_5_9"))
    text = render_checks(results)
    lines = text.splitlines()
    assert lines[-1].startswith(f"{sum(r.status == 'PASS' for r in results)} passed")
    for line in lines[:-1]:
        assert line.split()[0] in {"PASS", "FAIL", "INFO"}


def test_empty_scenario_rejected():
    empty = Scenario(
        name="nothing",
        domain=None,
        bm=None,
        packets={},
        time_grid=np.array([]),
        lambda_grid=np.array([]),
    )
    with pytest.raises(TwogapError):
        run_checks(empty)


def test_checks_without_a_time_grid_use_the_default():
    # every check falls back to the default time grid, the Cesàro decay included
    sc = bundled_scenario("example_5_9")
    bare = dataclasses.replace(sc, time_grid=np.array([]))
    names = [r.name for r in run_checks(bare)]
    assert names == [r.name for r in run_checks(sc)]
    assert "cesaro_correlation_decay" in names
