"""The scenario invariant battery as a library call."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from twogap import evolution, semigroup, verify
from twogap.errors import TwogapError
from twogap.evolution import evolve, translation_representation
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


def _count_calls(monkeypatch):
    """Per routine: the calls that ``verify`` makes through its own bindings
    of the evolutions and of ``decompose``, with their arguments."""
    calls = {}

    def counting(name, route):
        def wrapped(*args):
            calls.setdefault(name, []).append(args)
            return route(*args)

        return wrapped

    for module, names in (
        (evolution, ("evolve", "evolve_many", "decompose")),
        (semigroup, ("compress_evolve", "compress_evolve_many")),
    ):
        for name in names:
            # raising=False: a routine verify no longer imports is called 0 times
            monkeypatch.setattr(verify, name, counting(name, getattr(module, name)), raising=False)
    return calls


def test_verify_evolves_and_splits_each_packet_once(monkeypatch):
    calls = _count_calls(monkeypatch)
    sc = bundled_scenario("example_5_9")
    verify._packet_checks(sc)
    # one grid for f (the group law's time included), one for U(t1) f
    assert "evolve" not in calls and len(calls["evolve_many"]) == 2
    assert len(calls["decompose"]) <= 2
    calls.clear()
    verify._semigroup_checks(sc)
    assert "compress_evolve" not in calls and len(calls["compress_evolve_many"]) == 1

    calls.clear()
    sc = bundled_scenario("w_zero_boundstates")
    verify._decoupled_checks(sc)
    # U(ell) mid rides on the grid of mid: evolve only takes the halves back
    ts = sc.grid("time_grid", verify._TIME_GRID)
    ((*_, t),) = calls["evolve"]
    assert t == -float(ts[-1])
    assert Counter(len(args[3]) for args in calls["evolve_many"]) == Counter([len(ts) + 1, len(ts)])


@pytest.mark.parametrize("name", ["comb_limit", "example_5_8", "example_5_9", "w_one_splice"])
def test_shared_values_are_the_public_routes_values(name):
    # the group law, the inverse and both intertwining rows, recomputed with
    # one ``evolve`` per time, the public representations and the norm of a
    # difference train
    sc = bundled_scenario(name)
    bm, dom, f = sc.bm, sc.domain, sc.packets["f"]
    ts = sc.grid("time_grid", verify._TIME_GRID)
    t1, t2 = float(ts[-1]), float(ts[len(ts) // 2])
    u1 = evolve(bm, dom, f, t1).packet
    want = {
        "evolution_group_law": evolve(bm, dom, f, t1 + t2).packet.distance2(evolve(bm, dom, u1, t2).packet),
        "evolution_inverse": evolve(bm, dom, u1, -t1).packet.distance2(f),
    }
    for sign in ("+", "-"):
        rep_uf = translation_representation(bm, dom, u1, sign)
        rep_f = translation_representation(bm, dom, f, sign).translate(t1)
        want[f"translation_rep_intertwines_{sign}"] = (rep_uf - rep_f).norm2()
    got = {r.name: r.measured for r in run_checks(sc)}
    for row, gap2 in want.items():
        assert abs(got[row] - np.sqrt(gap2)) <= 1e-13, row
