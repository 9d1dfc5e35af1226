"""Benchmark of the twogap library: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
``src/`` directory.  A run sets the workload up, runs one cold pass, then
timed passes until S seconds have passed and at least 3 passes are timed
(but for at most 28 s), and finally gates the outputs of the first pass.
It prints a readable report followed by one JSON line:

* ``--trace 0``: the end-to-end metrics (set-up, first pass, pass time,
  call percentiles, peak memory) plus failed/attempted call counts.  Times
  are scaled to a reference host speed by a calibration kernel that runs
  between the timed calls (calibrate.py);
* ``--trace 1``: untraced and traced passes alternate, and the per-layer
  metrics come from the traced ones, with the tracing overhead and the
  share of pass time the layer spans cover.

Load shape: a closed loop with one caller in one process, no threads of its
own, BLAS/OpenMP pinned to one thread.  See BENCHMARK.json for the
workloads and README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cli_scenarios", "weak_coupling_dynamics", "oracle_quadrature")
# every call's median time needs a few timed passes ...
MIN_TIMED_PASSES = 3
# ... but no pass starts that would end after this long, so that a run on a
# slow, shared host still fits its time budget
MAX_TIMED_SECONDS = 28.0
# fresh interpreters that time set-up and the cold pass, and ones that time
# set-up only, besides this process
COLD_PROBES = 2
SETUP_PROBES = 1
# calibration kernels run right after set-up, to scale its time
SETUP_KERNELS = 9
MIN_TRACED_PASSES = 2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed probe)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "cold"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(name, seed, tmp_dir):
    """Import twogap from this checkout and build the workload's inputs.

    Returns the workload and the set-up time scaled to the reference host.
    """
    t0 = time.perf_counter()
    if not (SRC / "twogap" / "__init__.py").is_file():
        raise BenchError(f"no twogap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import twogap

    if not Path(twogap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported twogap from {twogap.__file__}, not from {SRC}")
    import workloads

    wl = workloads.build(name, seed, tmp_dir)
    seconds = time.perf_counter() - t0
    import calibrate

    return wl, seconds * calibrate.probe(SETUP_KERNELS)


def probe(kind, name, seed):
    """{"setup_s": ..., ["first_pass_s": ...]} from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"{kind} probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Pass:
    """Timings, outputs and failures of one sweep over the call list.

    With calibration on, the calibration kernel runs (untimed) before the
    first call and after every call, and each call's time is scaled by the
    kernels just before and just after it: the host's speed drifts within
    a pass, so a nearby reading tracks it better than one per pass.
    """

    def __init__(self, n):
        self.times = [0.0] * n
        self.scales = [1.0] * n
        self.outputs = [None] * n
        self.errors = {}

    @property
    def seconds(self):
        return sum(self.times)

    @property
    def scaled_times(self):
        return [t * f for t, f in zip(self.times, self.scales)]

    @property
    def scaled_seconds(self):
        return sum(self.scaled_times)


def run_pass(calls, order, tracer=None, calibrated=False):
    p = Pass(len(calls))
    if calibrated:
        import calibrate  # after set-up, so that numpy's import is timed there

        kernel_before = calibrate.kernel()
    for i in order:
        call = calls[i]
        call.before()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = call.run()
            else:
                with tracer.root(call.name):
                    result = call.run()
        except Exception as exc:  # a call that raises is a failed call
            p.errors[i] = f"{type(exc).__name__}: {exc}"
            result = None
        p.times[i] = time.perf_counter() - t0
        if calibrated:
            kernel_after = calibrate.kernel()
            p.scales[i] = calibrate.factor([kernel_before, kernel_after])
            kernel_before = kernel_after
        if i not in p.errors:
            p.outputs[i] = call.collect(result)
    return p


class Ledger:
    """Attempted and failed calls; later passes must repeat the first.

    Each call of the call list is one attempted operation, judged over every
    pass that ran it: it fails if any of its passes raises, fails the gate or
    does not repeat the first pass bit for bit.  So the counts depend on the
    seed only, not on how many passes fit into the run.
    """

    def __init__(self, calls, first: Pass, fingerprint):
        self.calls = calls
        self.fingerprint = fingerprint
        self.first = first
        self.first_prints = [
            None if i in first.errors else fingerprint(out)
            for i, out in enumerate(first.outputs)
        ]
        self.passes = 1
        self.failures = {}  # call index -> {failure: passes it happened in}
        self._repeats = {}  # call index -> later passes that matched the first

    def _fail(self, i, failure, count=1):
        per_call = self.failures.setdefault(i, {})
        per_call[failure] = per_call.get(failure, 0) + count

    def check(self, p: Pass, label):
        self.passes += 1
        for i in range(len(self.calls)):
            if i in p.errors:
                self._fail(i, f"{label}: {p.errors[i]}")
            elif self.fingerprint(p.outputs[i]) != self.first_prints[i]:
                self._fail(i, f"{label}: output differs from the first pass")
            else:
                self._repeats[i] = self._repeats.get(i, 0) + 1

    def gate_first(self):
        """Gate the first-pass outputs; repeats inherit the verdict."""
        by_name = {c.name: o for c, o in zip(self.calls, self.first.outputs)}
        for i, call in enumerate(self.calls):
            if i in self.first.errors:
                failure = self.first.errors[i]
            else:
                try:
                    failure = call.gate(self.first.outputs[i], by_name)
                except Exception as exc:  # a gate that cannot be evaluated fails
                    failure = f"gate raised {type(exc).__name__}: {exc}"
            if failure is not None:
                self._fail(i, failure, 1 + self._repeats.get(i, 0))

    @property
    def attempted(self):
        return len(self.calls)

    @property
    def failed(self):
        return len(self.failures)

    def unexpected(self, known_defect):
        """Failures that match no known defect."""
        return [
            (self.calls[i].name, f)
            for i, per_call in self.failures.items()
            for f in per_call
            if known_defect(self.calls[i].name, f) is None
        ]


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile of `values`.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights.  The timed calls fall into one cluster per call of the call
    list, and a plain percentile often sits on the border of two clusters,
    where it reads the noisiest extremes of each; this one averages across
    the border.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    p = q / 100.0
    n = len(x)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def timed_loop(seconds, step):
    """Call step() until `seconds` passed and MIN_TIMED_PASSES passes ran,
    unless the next pass would end after MAX_TIMED_SECONDS."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (
            done >= MIN_TIMED_PASSES or elapsed + last > MAX_TIMED_SECONDS
        ):
            return
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        done += 1


def bench_counts(calls, p: Pass, cli_reference_counts):
    if not cli_reference_counts:
        return {}
    out = {"csv_bytes": 0, "csv_files": 0, "byte_identical_files": 0}
    for call, o in zip(calls, p.outputs):
        if o is None:
            continue
        out["csv_bytes"] += sum(len(t.encode()) for t in o.files.values())
        out["csv_files"] += len(o.files)
        out["byte_identical_files"] += cli_reference_counts(o, call.reference)
    return out


def measure(args, wl, setup_main, workloads):
    calls = wl.calls
    probes = [probe("cold", args.workload, args.seed) for _ in range(COLD_PROBES)]
    probes += [probe("setup", args.workload, args.seed) for _ in range(SETUP_PROBES)]
    orders = workloads.inputs.pass_orders(args.seed, len(calls))
    first = run_pass(calls, next(orders), calibrated=True)
    setup_samples = [setup_main] + [p["setup_s"] for p in probes]
    first_samples = [first.scaled_seconds] + [
        p["first_pass_s"] for p in probes if "first_pass_s" in p
    ]
    ledger = Ledger(calls, first, workloads.fingerprint)
    passes = []
    cli_counts = workloads.byte_identical if wl.name == "cli_scenarios" else None
    counts = {}

    def step():
        p = run_pass(calls, next(orders), calibrated=True)
        ledger.check(p, "timed pass")
        counts.update(bench_counts(calls, p, cli_counts))
        p.outputs = None  # keep memory flat however many passes run
        passes.append(p)

    timed_loop(args.seconds, step)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.gate_first()
    # each call's median over the timed passes: the same call on the same
    # input differs from pass to pass only by host noise
    call_ms = [
        statistics.median(p.scaled_times[i] for p in passes) * 1e3
        for i in range(len(calls))
    ]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "first_pass_s": (statistics.median(first_samples), "s"),
        "pass_s": (statistics.median(p.scaled_seconds for p in passes), "s"),
        "call_ms.p50": (percentile(call_ms, 50), "ms"),
        "call_ms.p95": (percentile(call_ms, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    scales = [f for p in passes for f in p.scales]
    lines = [
        f"times are scaled to the reference host: x {statistics.median(scales):.3f} "
        f"(calls {min(scales):.3f}-{max(scales):.3f}); "
        f"unscaled pass_s {statistics.median(p.seconds for p in passes):.4f} s",
        f"setup_s        {metrics['setup_s'][0]:.4f} s  "
        f"(median of {len(setup_samples)} interpreters, this one included)",
        f"first_pass_s   {metrics['first_pass_s'][0]:.4f} s  "
        f"(module caches empty; median of {len(first_samples)} interpreters)",
        f"pass_s         {metrics['pass_s'][0]:.4f} s  (median of {len(passes)} passes)",
        f"call_ms.p50    {metrics['call_ms.p50'][0]:.3f} ms  "
        f"(over the {len(calls)} calls' medians; {len(calls) * len(passes)} timed calls)",
        f"call_ms.p95    {metrics['call_ms.p95'][0]:.3f} ms  "
        f"(over the {len(calls)} calls' medians; {len(calls) * len(passes)} timed calls)",
        f"peak_rss_mb    {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    if counts:
        lines.append(
            f"cli output     {counts['csv_files']} CSV files, {counts['csv_bytes']} bytes per "
            f"pass; {counts['byte_identical_files']} byte-identical to the reference"
        )
    return metrics, lines, ledger


def measure_traced(args, wl, workloads, tracer_mod):
    calls = wl.calls
    orders = workloads.inputs.pass_orders(args.seed, len(calls))
    first = run_pass(calls, next(orders))
    ledger = Ledger(calls, first, workloads.fingerprint)
    tracer = tracer_mod.Tracer()
    plain, traced, per_pass, covers, breakdowns = [], [], [], [], []
    cli_counts = workloads.byte_identical if wl.name == "cli_scenarios" else None

    def step():
        p = run_pass(calls, next(orders))
        ledger.check(p, "untraced pass")
        plain.append(p.seconds)
        with tracer.installed():
            p = run_pass(calls, next(orders), tracer)
        ledger.check(p, "traced pass")
        traced.append(p.seconds)
        spans = tracer.take()
        per_pass.append(
            tracer_mod.layer_metrics(spans, bench_counts(calls, p, cli_counts), tracer.is_absent)
        )
        covers.append(tracer_mod.coverage(spans))
        breakdowns.append(call_breakdown(spans))

    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) < MIN_TRACED_PASSES:
        step()
    ledger.gate_first()

    metrics, lines = {}, []
    for name, unit, _ in tracer_mod.LAYER_METRICS:
        vals = [m[name] for m in per_pass]
        if any(v is None for v in vals):
            metrics[name] = (0.0, unit)
            lines.append(f"{name:40s} absent")
            continue
        metrics[name] = (statistics.median(vals), unit)
        lines.append(f"{name:40s} {metrics[name][0]:.6g} {unit}")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.coverage"] = (statistics.median(covers), "ratio")
    lines.append(
        f"{'trace.overhead_ratio':40s} {overhead:.4f}  (traced {statistics.median(traced):.4f} s"
        f" / untraced {statistics.median(plain):.4f} s per pass, {len(traced)} pairs)"
    )
    lines.append(f"{'trace.coverage':40s} {metrics['trace.coverage'][0]:.4f}")
    if tracer.absent:
        lines.append("absent traced names: " + ", ".join(tracer.absent))
    lines += breakdown_lines(breakdowns)
    return metrics, lines, ledger


def call_breakdown(spans):
    """Per evolve call: evolve time, series terms swept, cells kept/swept."""
    rows = {}
    for s in spans:
        if s.name != "call" or not s.counts["call"].startswith("evolve w="):
            continue
        rows[s.counts["call"]] = {"evolve_s": 0.0, "terms": 0, "applies": 0,
                                  "swept": 0, "kept": 0}
    for s in spans:
        if s.parent < 0:
            continue
        row = rows.get(spans[s.root].counts["call"])
        if row is None:
            continue
        if s.name == "evolution.evolve":
            row["evolve_s"] += s.end - s.start
            row["kept"] += s.counts["cells_out"]
        elif s.name == "multipliers.apply" and s.counts:
            row["terms"] += s.counts["terms"]
            row["applies"] += 1
            row["swept"] += s.counts["cells_out"]
    return rows


def breakdown_lines(breakdowns):
    if not breakdowns or not breakdowns[0]:
        return []
    lines = ["evolve calls (median over traced passes): "
             "evolve_s, series terms per apply, cells kept / cells swept"]
    for name in sorted(breakdowns[0], key=_call_key):
        rows = [b[name] for b in breakdowns if name in b]
        t = statistics.median(r["evolve_s"] for r in rows)
        r = rows[0]
        per_apply = r["terms"] / r["applies"] if r["applies"] else 0.0
        ratio = r["kept"] / r["swept"] if r["swept"] else 0.0
        lines.append(
            f"  {name:24s} {t:.4f} s  {per_apply:9.0f} terms/apply  "
            f"{r['kept']}/{r['swept']} = {ratio:.2e}"
        )
    return lines


def _call_key(name):
    parts = dict(p.split("=") for p in name.split()[1:])
    return (-float(parts.get("w", 0)), float(parts.get("t", 0)))


def failure_lines(ledger, known_defect):
    lines = [
        f"fail_ratio     {ledger.failed / ledger.attempted:.4f}  "
        f"({ledger.failed} failed / {ledger.attempted} attempted calls, "
        f"each judged over its {ledger.passes} passes)"
    ]
    reasons = {}
    for i, per_call in sorted(ledger.failures.items()):
        name = ledger.calls[i].name
        for failure, n in per_call.items():
            defect = known_defect(name, failure)
            if defect is not None:
                reasons[defect.calls] = defect.reason
            tag = "known defect" if defect else "FAILED"
            lines.append(f"  {tag}: {name} in {n} passes: {failure}")
    lines += [f"  known defect {calls}: {reason}" for calls, reason in reasons.items()]
    return lines


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    tmp_dir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    wl, setup = set_up(args.workload, args.seed, tmp_dir)
    import tracer as tracer_mod  # importable once set_up has run
    import workloads

    try:
        if args.probe:
            out = {"setup_s": setup}
            if args.probe == "cold":
                order = next(workloads.inputs.pass_orders(args.seed, len(wl.calls)))
                out["first_pass_s"] = run_pass(wl.calls, order, calibrated=True).scaled_seconds
            print(json.dumps(out))
            return 0
        if args.trace:
            metrics, lines, ledger = measure_traced(args, wl, workloads, tracer_mod)
        else:
            metrics, lines, ledger = measure(args, wl, setup, workloads)
    finally:
        wl.cleanup()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_dir.parent.rmdir()
        except OSError:
            pass

    correct = not ledger.unexpected(workloads.known_defect)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(wl.calls)} calls per pass")
    for line in lines + failure_lines(ledger, workloads.known_defect):
        print("  " + line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(ledger.attempted),
        "failed": int(ledger.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
