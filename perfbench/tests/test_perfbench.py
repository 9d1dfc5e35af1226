"""Tests of the benchmark itself (run: python -m pytest perfbench/tests -q)."""

import importlib
import sys

import pytest

import calibrate
import inputs
import run
import tracer
import workloads
from twogap.packets import StepPacket


def _snapshot():
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "twogap" or name.startswith("twogap."):
            for key, value in vars(mod).items():
                state[(name, key)] = value
    for key, value in vars(StepPacket).items():
        state[("StepPacket", key)] = value
    return state


@pytest.mark.parametrize("build", [inputs.weak_coupling_inputs, inputs.oracle_inputs])
def test_generator_is_deterministic_per_seed(build):
    assert workloads.fingerprint(build(5)) == workloads.fingerprint(build(5))
    assert workloads.fingerprint(build(5)) != workloads.fingerprint(build(6))


def test_pass_orders_are_seeded_permutations():
    a, b, c = inputs.pass_orders(4, 9), inputs.pass_orders(4, 9), inputs.pass_orders(5, 9)
    first = [next(a) for _ in range(3)]
    assert first == [next(b) for _ in range(3)]
    assert first != [next(c) for _ in range(3)]
    assert all(sorted(o) == list(range(9)) for o in first)


def test_packets_stay_inside_the_domain_components():
    data = inputs.oracle_inputs(7)
    dom = data["domain"]
    for row in data["rows"]:
        for f in (row["sigma"], row["resolvent"], row["kernel"], row["adjoint"]):
            inside = sum(f.restrict(*dom.component(c)).norm2()
                         for c in ("iminus", "izero", "iplus"))
            assert inside == pytest.approx(f.norm2(), abs=1e-15)
            assert f.norm2() == pytest.approx(1.0)


def test_wrappers_restore_every_original():
    import twogap.evolution
    import twogap.multipliers

    for _, module, *_ in tracer.TARGETS:
        importlib.import_module(module)  # installing imports them; not a change
    before = _snapshot()
    original = twogap.evolution.apply_multiplier
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tr.installed():
            # every import site of a wrapped name sees the wrapper
            assert twogap.evolution.apply_multiplier is not original
            assert twogap.multipliers.apply_multiplier is twogap.evolution.apply_multiplier
            assert StepPacket.inner is not before[("StepPacket", "inner")]
            raise RuntimeError("inside")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_renamed_target_is_reported_absent(monkeypatch):
    targets = tuple(
        (p, m, "evolve_renamed_away", c, h) if p == "evolution.evolve" else (p, m, a, c, h)
        for p, m, a, c, h in tracer.TARGETS
    )
    monkeypatch.setattr(tracer, "TARGETS", targets)
    tr = tracer.Tracer()
    with tr.installed():
        pass
    assert any("evolve_renamed_away" in a for a in tr.absent)
    metrics = tracer.layer_metrics([], {}, tr.is_absent)
    assert metrics["evolution.evolve.calls"] is None
    assert metrics["evolution.kept_cell_ratio"] is None
    assert metrics["multipliers.make.calls"] == 0.0


def test_self_time_subtracts_child_spans():
    def span(name, start, end, parent, counts=None):
        s = tracer.Span(name, start, parent, 0)
        s.end, s.counts = end, counts
        return s

    spans = [
        span(tracer.ROOT, 0.0, 10.0, -1, {"call": "evolve w=1 t=1"}),
        span("evolution.evolve", 1.0, 9.0, 0, {"cells_out": 3}),
        span("multipliers.apply", 2.0, 5.0, 1, {"terms": 40, "cells_out": 30}),
        span("packets.sum_packets", 6.0, 7.0, 1, {"cells_in": 5, "cells_out": 4}),
    ]
    m = tracer.layer_metrics(spans, {})
    assert m["evolution.evolve.self_s"] == pytest.approx(4.0)
    assert m["multipliers.apply.self_s"] == pytest.approx(3.0)
    assert m["evolution.kept_cell_ratio"] == pytest.approx(0.1)
    assert m["packets.sum_packets.cells_in"] == 5.0
    assert tracer.coverage(spans) == pytest.approx(0.8)


def test_csv_comparison_tolerance():
    want = "t,norm2\n1,0.5\n2,nan\n"
    assert workloads.compare_csv("t,norm2\n1,0.5000000001\n2,nan\n", want) is None
    assert workloads.compare_csv("t,norm2\n1,0.500000002\n2,nan\n", want) is not None
    assert workloads.compare_csv("t,norm2\n1,0.5\n", want) is not None


def test_known_defects_need_the_named_call_gate_and_size():
    drift = workloads.GateFailure("||U(-t)U(t)f - f||", 7e-8, 1e-9)
    assert workloads.known_defect("evolve w=0.9 t=100", drift) is not None
    assert workloads.known_defect("evolve w=0.9 t=1", drift) is None
    big = workloads.GateFailure("||U(-t)U(t)f - f||", 1e-3, 1e-9)
    assert workloads.known_defect("evolve w=0.9 t=100", big) is None
    assert workloads.known_defect("evolve w=0.9 t=100", "raised ValueError") is None


def test_failures_count_calls_not_passes():
    calls = [
        workloads.Call(f"c{i}", lambda i=i: i, lambda out, _o: None if out else "zero")
        for i in range(3)
    ]
    order = [2, 0, 1]
    ledger = run.Ledger(calls, run.run_pass(calls, order), workloads.fingerprint)
    for _ in range(4):
        ledger.check(run.run_pass(calls, order), "timed pass")
    ledger.gate_first()
    assert (ledger.attempted, ledger.failed, ledger.passes) == (3, 1, 5)
    assert ledger.failures == {0: {"zero": 5}}


def test_percentile_averages_across_cluster_borders():
    assert run.percentile([1.0] * 50 + [2.0] * 50, 50) == pytest.approx(1.5)
    assert run.percentile(list(range(101)), 50) == pytest.approx(50.0)
    assert 94.0 < run.percentile(list(range(101)), 95) < 96.0


def test_calibrated_pass_scales_each_call():
    calls = [workloads.Call(f"c{i}", lambda: sum(range(1000)), lambda out, _o: None)
             for i in range(4)]
    p = run.run_pass(calls, [3, 1, 0, 2], calibrated=True)
    assert all(f > 0.0 for f in p.scales)
    assert p.scaled_seconds == pytest.approx(sum(t * f for t, f in zip(p.times, p.scales)))
    assert run.run_pass(calls, [0, 1, 2, 3]).scales == [1.0] * 4
    assert calibrate.factor([calibrate.REFERENCE_S] * 3) == pytest.approx(1.0)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_pass_reproduces_untraced_outputs(name, tmp_path):
    wl = workloads.build(name, 3, tmp_path / "out")
    order = list(range(len(wl.calls)))
    try:
        plain = run.run_pass(wl.calls, order)
        tr = tracer.Tracer()
        with tr.installed():
            traced = run.run_pass(wl.calls, order, tr)
    finally:
        wl.cleanup()
    assert not plain.errors and not traced.errors
    for call, a, b in zip(wl.calls, plain.outputs, traced.outputs):
        assert workloads.fingerprint(a) == workloads.fingerprint(b), call.name
    assert sum(1 for s in tr.spans if s.name == tracer.ROOT) == len(wl.calls)
    assert not tr.absent
