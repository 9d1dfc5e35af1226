"""The three benchmark workloads as fixed call lists with correctness gates.

A workload is a list of ``Call`` objects.  One pass runs every call once, in
a seeded order; the harness times ``run`` and nothing else.  ``collect``
turns the return value into the output that is fingerprinted and gated
(for CLI calls it reads the CSV files back), and ``gate`` judges a
first-pass output, returning None when it passes and a ``GateFailure`` or
a message when it fails.  Gates run after the timed passes, on the outputs of the first pass;
later passes only have to reproduce those outputs bit for bit.

Gate tolerances are the ones of tests/test_acceptance.py and the module
tests.  The workloads drive the library only through its public names, and
look each one up on its module at call time so that the tracer's wrappers
are the ones called.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import shutil
import struct
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

REFERENCE = Path(__file__).resolve().parent / "reference" / "cli_scenarios.json"


@dataclasses.dataclass(frozen=True)
class GateFailure:
    """A gate that measured `measured` against tolerance `tol`."""

    what: str
    measured: float
    tol: float

    def __str__(self):
        return f"{self.what} {self.measured:.3e} > {self.tol:g}"


@dataclasses.dataclass(frozen=True)
class KnownDefect:
    """Gate failures of the library as it was when the benchmark was made.

    They are counted as failed calls.  A run whose every failure matches one
    of these (call name, gate, measured value at most `ceiling`) is still
    reported as correct; anything else makes the run incorrect.
    """

    calls: str  # regular expression over call names
    what: tuple
    ceiling: float
    reason: str

    def matches(self, call_name, failure) -> bool:
        return (
            isinstance(failure, GateFailure)
            and re.fullmatch(self.calls, call_name) is not None
            and failure.what in self.what
            and failure.measured <= self.ceiling
        )


KNOWN_DEFECTS = (
    KnownDefect(
        r"(kernel_apply|norm_decay_profile) w=0\.2",
        ("kernel oracle vs engine gap", "profile engine vs oracle gap"),
        1e-2,
        "both fold-node oracles integrate on the fixed _fold_nodes(24, 20) grid, "
        "which does not narrow with q the way transform._panel_width does; at "
        "w = 0.2 they miss the density spikes (gaps of 1e-7 to 1e-3)",
    ),
    KnownDefect(
        r"evolve w=[0-9.]+ t=100",
        ("||U(-t)U(t)f - f||",),
        1e-6,
        "cell edges drift by an ulp of t under translation and an edge displaced "
        "by d costs sqrt(d) in L2, so for edges that are not exact binary "
        "fractions the round trip returns within about 1e-7, not 1e-9",
    ),
)


def known_defect(call_name, failure):
    """The known defect a failure belongs to, or None."""
    return next((d for d in KNOWN_DEFECTS if d.matches(call_name, failure)), None)


# U(-t) U(t) f needs the full evolution of the evolved packet.  At w = 0.05
# and t >= 10 that packet has 40-500 cells and its inverse sweeps 10^6-10^7
# segments (5-60 s, 0.4-4 GB), so there the evolve calls are gated by
# unitarity and the bit-for-bit repeat only.
INVERSE_GATE_SKIP = frozenset({(0.05, 10.0), (0.05, 100.0)})


@dataclasses.dataclass
class Call:
    name: str
    run: Callable[[], object]
    gate: Callable[[object, dict], object]  # -> None, GateFailure or message
    collect: Callable[[object], object] = lambda result: result
    before: Callable[[], None] = lambda: None
    reference: dict | None = None  # recorded CLI output, cli_scenarios only


@dataclasses.dataclass
class Workload:
    name: str
    calls: list
    cleanup: Callable[[], None] = lambda: None


def fingerprint(obj) -> str:
    """SHA-256 over a canonical byte form of a library output."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    from twogap.packets import StepPacket

    if isinstance(obj, StepPacket):
        h.update(b"P")
        _feed(h, obj.lo)
        _feed(h, obj.hi)
        _feed(h, dict(obj.waves))
    elif isinstance(obj, np.ndarray):
        h.update(f"A{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, int, np.integer)):
        h.update(f"I{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        h.update(b"C" + struct.pack("<dd", obj.real, obj.imag))
    elif isinstance(obj, (str, bytes)):
        data = obj.encode() if isinstance(obj, str) else obj
        h.update(b"S%d:" % len(data) + data)
    elif isinstance(obj, dict):
        h.update(b"D%d" % len(obj))
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"L%d" % len(obj))
        for v in obj:
            _feed(h, v)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif obj is None:
        h.update(b"N")
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def _exceeds(measured, tol, what):
    if np.isfinite(measured) and measured <= tol:
        return None
    return GateFailure(what, float(measured), tol)


# ----------------------------------------------------------------------
# cli_scenarios
# ----------------------------------------------------------------------


def load_reference():
    return json.loads(REFERENCE.read_text())


def _parse_csv(text):
    rows = [line.split(",") for line in text.splitlines()]
    return rows[0], rows[1:]


def _cell_differs(got, want):
    """True when two CSV cells differ beyond 1e-9 absolute plus relative."""
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got != want
    if np.isnan(w):
        return not np.isnan(g)
    return not abs(g - w) <= 1e-9 * (1.0 + abs(w))


def compare_csv(got: str, want: str):
    """None when two CSV texts agree to 1e-9, else the first difference."""
    g_head, g_rows = _parse_csv(got)
    w_head, w_rows = _parse_csv(want)
    if g_head != w_head:
        return f"header {g_head} != {w_head}"
    if len(g_rows) != len(w_rows):
        return f"{len(g_rows)} rows, reference has {len(w_rows)}"
    for i, (gr, wr) in enumerate(zip(g_rows, w_rows)):
        if len(gr) != len(wr):
            return f"row {i} has {len(gr)} cells, reference {len(wr)}"
        for j, (gc, wc) in enumerate(zip(gr, wr)):
            if _cell_differs(gc, wc):
                return f"row {i} column {g_head[j]}: {gc} vs reference {wc}"
    return None


@dataclasses.dataclass(frozen=True)
class CliOutput:
    exit_code: int
    files: dict  # file name -> text


def cli_gate(ref):
    def gate(out: CliOutput, _outputs):
        if out.exit_code != ref["exit_code"]:
            return f"exit code {out.exit_code}, reference {ref['exit_code']}"
        if sorted(out.files) != sorted(ref["files"]):
            return f"wrote {sorted(out.files)}, reference {sorted(ref['files'])}"
        for name, want in ref["files"].items():
            diff = compare_csv(out.files[name], want)
            if diff is not None:
                return f"{name}: {diff}"
        return None

    return gate


def byte_identical(out: CliOutput, ref) -> int:
    return sum(1 for n, text in out.files.items() if ref["files"].get(n) == text)


def _run_quiet(main, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


def cli_workload(seed, tmp_dir: Path) -> Workload:
    """Every (command, bundled scenario) pair that exits 0 at the reference."""
    from twogap import cli
    from twogap.scenario import bundled_scenario

    reference = load_reference()
    pairs = [p for p in reference["pairs"] if p["exit_code"] == 0]
    for name in sorted({p["scenario"] for p in pairs}):
        bundled_scenario(name)  # parse every scenario once, as set-up
    calls = []
    for ref in pairs:
        out_dir = tmp_dir / f"{ref['command']}-{ref['scenario']}"
        argv = [ref["command"], "--scenario", ref["scenario"], "--out", str(out_dir)]

        def before(out_dir=out_dir):
            shutil.rmtree(out_dir, ignore_errors=True)

        def collect(code, out_dir=out_dir):
            files = {}
            if out_dir.is_dir():
                files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
            return CliOutput(int(code), files)

        calls.append(
            Call(
                name=f"{ref['command']} {ref['scenario']}",
                run=lambda argv=argv: _run_quiet(cli.main, argv),
                gate=cli_gate(ref),
                collect=collect,
                before=before,
                reference=ref,
            )
        )
    return Workload(
        "cli_scenarios", calls, cleanup=lambda: shutil.rmtree(tmp_dir, ignore_errors=True)
    )


# ----------------------------------------------------------------------
# weak_coupling_dynamics
# ----------------------------------------------------------------------


def weak_coupling_workload(seed, tmp_dir=None) -> Workload:
    from twogap import evolution, semigroup

    data = inputs.weak_coupling_inputs(seed)
    dom = data["domain"]
    ts = data["params"]["t"]
    horizons = list(data["params"]["cesaro_horizons"])
    calls = []
    for row in data["rows"]:
        w, bm = row["w"], row["bm"]
        for t, f in zip(ts, row["evolve"]):

            def gate_evolve(res, _outputs, bm=bm, f=f, t=t, w=w):
                msg = _exceeds(
                    abs(res.packet.norm2() - f.norm2()), 1e-10, "unitarity drift"
                )
                if msg or (w, t) in INVERSE_GATE_SKIP:
                    return msg
                back = evolution.evolve(bm, dom, res.packet, -t).packet
                return _exceeds(np.sqrt(back.distance2(f)), 1e-9, "||U(-t)U(t)f - f||")

            calls.append(
                Call(
                    f"evolve w={w} t={t:g}",
                    lambda bm=bm, f=f, t=t: evolution.evolve(bm, dom, f, t),
                    gate_evolve,
                )
            )
        mid = row["compress"]
        for k, t in enumerate(ts):

            def gate_compress(res, outputs, f=mid, k=k, w=w):
                # contraction: the norm never grows along the time grid
                prev = (
                    f.norm2()
                    if k == 0
                    else outputs[f"compress_evolve w={w} t={ts[k - 1]:g}"].packet.norm2()
                )
                growth = res.packet.norm2() - prev
                return _exceeds(max(growth, 0.0), 1e-12, "compressed norm growth")

            calls.append(
                Call(
                    f"compress_evolve w={w} t={t:g}",
                    lambda bm=bm, f=mid, t=t: semigroup.compress_evolve(bm, dom, f, t),
                    gate_compress,
                )
            )
        f_in = row["scatter"]
        calls.append(
            Call(
                f"scatter w={w}",
                lambda bm=bm, f=f_in: evolution.scatter(bm, dom, f),
                lambda out, _o, f=f_in: _exceeds(
                    abs(out.norm2() - f.norm2()), 1e-10, "scatter isometry drift"
                ),
            )
        )
        fc, gc = row["cesaro_f"], row["cesaro_g"]

        def gate_cesaro(vals, _outputs, fc=fc, gc=gc):
            # Cauchy-Schwarz: every time average lies in [0, |f|^2 |g|^2]
            vals = np.atleast_1d(vals)
            bound = fc.norm2() * gc.norm2() * (1.0 + 1e-12)
            worst = max(float(np.max(vals)) - bound, -float(np.min(vals)), 0.0)
            return _exceeds(worst, 0.0, "Cesaro average outside [0, |f|^2|g|^2] by")

        calls.append(
            Call(
                f"cesaro_decay w={w}",
                lambda bm=bm, fc=fc, gc=gc: evolution.cesaro_decay(bm, dom, fc, gc, horizons),
                gate_cesaro,
            )
        )
    return Workload("weak_coupling_dynamics", calls)


# ----------------------------------------------------------------------
# oracle_quadrature
# ----------------------------------------------------------------------


def oracle_workload(seed, tmp_dir=None) -> Workload:
    from twogap import semigroup, spectral, transform

    data = inputs.oracle_inputs(seed)
    p = data["params"]
    dom = data["domain"]
    xs, lam_k = data["resolvent_x"], data["kernel_lambda"]
    t_prof, grid = data["profile_t"], data["forward_grid"]
    calls = []
    for row in data["rows"]:
        w, bm = row["w"], row["bm"]
        f = row["sigma"]
        calls.append(
            Call(
                f"sigma_norm2 w={w}",
                lambda bm=bm, f=f: transform.sigma_norm2(bm, dom, f),
                lambda s, _o, f=f: _exceeds(abs(s - f.norm2()), 1e-8, "Parseval gap"),
            )
        )
        f = row["resolvent"]
        calls.append(
            Call(
                f"resolvent_comparison w={w}",
                lambda bm=bm, f=f: semigroup.resolvent_comparison(
                    bm, dom, p["resolvent_lambda"], f, xs
                ),
                lambda rep, _o: _exceeds(
                    rep["laplace_vs_closed"], 1e-8, "Laplace vs closed-form gap"
                ),
            )
        )
        f = row["kernel"]

        def gate_kernel(sample, _o, bm=bm, f=f):
            engine = semigroup.compress_evolve(bm, dom, f, p["kernel_t"]).packet
            engine = engine.transform(lam_k)
            gap = float(np.max(np.abs(sample.values - engine)))
            return _exceeds(gap, 1e-8, "kernel oracle vs engine gap")

        calls.append(
            Call(
                f"kernel_apply w={w}",
                lambda bm=bm, f=f: semigroup.semigroup_kernel_apply(
                    bm, f, p["kernel_t"], lam_k
                ),
                gate_kernel,
            )
        )
        n = row["profile_n"]
        calls.append(
            Call(
                f"norm_decay_profile w={w}",
                lambda bm=bm, n=n: semigroup.norm_decay_profile(bm, n, t_prof),
                lambda prof, _o: _exceeds(
                    float(np.max(np.abs(prof.engine - prof.oracle))),
                    1e-8,
                    "profile engine vs oracle gap",
                ),
            )
        )
        calls.append(
            Call(
                f"period_integral w={w}",
                lambda bm=bm: spectral.period_integral(bm, dom),
                lambda v, _o: _exceeds(abs(v - 1.0 / dom.ell), 1e-10, "period integral error"),
            )
        )
        f = row["adjoint"]

        def gate_adjoint(back, _o, f=f):
            xs_in = np.concatenate([np.linspace(u, v, 9)[1:-1] for u, v, _ in f.cells()])
            gap = float(np.max(np.abs(back.sample(xs_in) - f.sample(xs_in))))
            return _exceeds(gap, 1e-6, "adjoint round-trip gap")

        calls.append(
            Call(
                f"adjoint_transform w={w}",
                lambda bm=bm, f=f: transform.adjoint_transform(
                    bm, dom, transform.forward_transform(bm, dom, f, grid)
                ),
                gate_adjoint,
            )
        )
    return Workload("oracle_quadrature", calls)


BUILDERS = {
    "cli_scenarios": cli_workload,
    "weak_coupling_dynamics": weak_coupling_workload,
    "oracle_quadrature": oracle_workload,
}


def build(name, seed, tmp_dir: Path) -> Workload:
    return BUILDERS[name](seed, tmp_dir)
