"""Layer spans recorded from outside the library.

``Tracer.installed()`` replaces each traced twogap function by a wrapper at
every place the function object is bound: the defining module, every twogap
module that imported the name, and the class for methods.  A wrapper records
one span (name, start, end, parent, root call, counts) and returns exactly
what the original returned.  Leaving the ``with`` block puts every original
back.  Spans live in memory until the harness turns a pass of them into
per-layer metrics with ``layer_metrics``.

A traced name that a later version of the library no longer has is listed
in ``Tracer.absent`` and its metrics are reported as absent; nothing fails.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import types

import numpy as np


def _sum_packets_pre(args, kwargs):
    # materialize the iterable once so counting cannot consume a generator
    packets = list(args[0])
    return (packets,) + args[1:], kwargs, sum(p.n_cells for p in packets)


def _adaptive_simpson_pre(args, kwargs):
    box = [0]
    fn = args[0]

    def counted(x):
        box[0] += 1
        return fn(x)

    return (counted,) + args[1:], kwargs, box


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# metric prefix, module, attribute ("Class.method" or "*" for every public
# function of the module), counts(args, kwargs, result, pre) or None, pre-hook
TARGETS = (
    ("packets.sum_packets", "twogap.packets", "sum_packets",
     lambda a, k, r, pre: {"cells_in": pre, "cells_out": r.n_cells}, _sum_packets_pre),
    ("packets.inner", "twogap.packets", "StepPacket.inner", None, None),
    ("packets.transform", "twogap.packets", "StepPacket.transform",
     lambda a, k, r, pre: {"cell_lambda": a[0].n_cells * int(np.size(_arg(a, k, 1, "lam")))},
     None),
    ("packets.sample", "twogap.packets", "StepPacket.sample",
     lambda a, k, r, pre: {"points": int(np.size(_arg(a, k, 1, "x")))}, None),
    ("multipliers.make", "twogap.multipliers", "make_multiplier",
     lambda a, k, r, pre: {"terms": len(r.coeffs)}, None),
    ("multipliers.apply", "twogap.multipliers", "apply_multiplier",
     lambda a, k, r, pre: {"terms": len(_arg(a, k, 0, "m").coeffs), "cells_out": r.n_cells},
     None),
    ("multipliers.block", "twogap.multipliers", "block_multiplier", None, None),
    ("evolution.evolve", "twogap.evolution", "evolve",
     lambda a, k, r, pre: {"cells_out": r.packet.n_cells}, None),
    ("evolution.scatter", "twogap.evolution", "scatter", None, None),
    ("evolution.cesaro_decay", "twogap.evolution", "cesaro_decay", None, None),
    ("semigroup.compress_evolve", "twogap.semigroup", "compress_evolve", None, None),
    ("semigroup.resolvent_laplace", "twogap.semigroup", "compressed_resolvent_profile",
     None, None),
    ("semigroup.kernel_apply", "twogap.semigroup", "semigroup_kernel_apply", None, None),
    ("semigroup.norm_decay_profile", "twogap.semigroup", "norm_decay_profile", None, None),
    ("transform.sigma_norm2", "twogap.transform", "sigma_norm2", None, None),
    ("transform.forward", "twogap.transform", "forward_transform", None, None),
    ("transform.adjoint", "twogap.transform", "adjoint_transform", None, None),
    ("eigen.eigen_coeffs", "twogap.eigen", "eigen_coeffs",
     lambda a, k, r, pre: {"points": int(np.size(_arg(a, k, 2, "lam")))}, None),
    ("quadrature.gauss_panels", "twogap.quadrature", "gauss_panels",
     lambda a, k, r, pre: {
         "nodes": (len(_arg(a, k, 1, "edges")) - 1) * int(_arg(a, k, 2, "order", 16))
     }, None),
    ("quadrature.adaptive_simpson", "twogap.quadrature", "adaptive_simpson",
     lambda a, k, r, pre: {"evals": pre[0]}, _adaptive_simpson_pre),
    ("spectral.period_integral", "twogap.spectral", "period_integral", None, None),
    ("spectral.fourier_coeffs", "twogap.spectral", "fourier_coeffs", None, None),
    ("scenario.load", "twogap.scenario", "bundled_scenario", None, None),
    ("scenario.load", "twogap.scenario", "load_scenario", None, None),
    ("cli.main", "twogap.cli", "main", None, None),
    ("verify.run_checks", "twogap.verify", "run_checks",
     lambda a, k, r, pre: {
         "checks": len(r), "failed_checks": sum(1 for c in r if c.status == "FAIL")
     }, None),
    ("rkhs", "twogap.rkhs", "*", None, None),
    ("degenerate", "twogap.degenerate", "*", None, None),
)

ROOT = "call"

# name, unit, how: ("self", prefix) sums self time over spans whose name
# starts with prefix, ("calls", name) counts spans, ("count", name, field)
# sums a recorded count, ("bench", key) is a per-pass harness counter.
LAYER_METRICS = (
    ("packets.self_s", "s", ("self", "packets.")),
    ("packets.sum_packets.calls", "count", ("calls", "packets.sum_packets")),
    ("packets.sum_packets.cells_in", "count", ("count", "packets.sum_packets", "cells_in")),
    ("packets.sum_packets.cells_out", "count", ("count", "packets.sum_packets", "cells_out")),
    ("packets.inner.calls", "count", ("calls", "packets.inner")),
    ("packets.inner.self_s", "s", ("self", "packets.inner")),
    ("packets.transform.self_s", "s", ("self", "packets.transform")),
    ("packets.transform.cell_lambda", "count",
     ("count", "packets.transform", "cell_lambda")),
    ("packets.sample.calls", "count", ("calls", "packets.sample")),
    ("packets.sample.points", "count", ("count", "packets.sample", "points")),
    ("multipliers.make.calls", "count", ("calls", "multipliers.make")),
    ("multipliers.make.terms", "count", ("count", "multipliers.make", "terms")),
    ("multipliers.make.self_s", "s", ("self", "multipliers.make")),
    ("multipliers.apply.terms", "count", ("count", "multipliers.apply", "terms")),
    ("multipliers.apply.cells_out", "count", ("count", "multipliers.apply", "cells_out")),
    ("multipliers.apply.self_s", "s", ("self", "multipliers.apply")),
    ("multipliers.block.calls", "count", ("calls", "multipliers.block")),
    ("evolution.evolve.calls", "count", ("calls", "evolution.evolve")),
    ("evolution.evolve.cells_out", "count", ("count", "evolution.evolve", "cells_out")),
    ("evolution.evolve.self_s", "s", ("self", "evolution.evolve")),
    ("evolution.kept_cell_ratio", "ratio", ("kept_cells",)),
    ("evolution.scatter.self_s", "s", ("self", "evolution.scatter")),
    ("evolution.cesaro_decay.self_s", "s", ("self", "evolution.cesaro_decay")),
    ("evolution.cesaro_decay.inner_calls", "count", ("cesaro_inner",)),
    ("semigroup.compress_evolve.self_s", "s", ("self", "semigroup.compress_evolve")),
    ("semigroup.resolvent_laplace.self_s", "s", ("self", "semigroup.resolvent_laplace")),
    ("semigroup.kernel_apply.self_s", "s", ("self", "semigroup.kernel_apply")),
    ("semigroup.norm_decay_profile.self_s", "s", ("self", "semigroup.norm_decay_profile")),
    ("transform.sigma_norm2.self_s", "s", ("self", "transform.sigma_norm2")),
    ("transform.forward.self_s", "s", ("self", "transform.forward")),
    ("transform.adjoint.self_s", "s", ("self", "transform.adjoint")),
    ("eigen.eigen_coeffs.calls", "count", ("calls", "eigen.eigen_coeffs")),
    ("eigen.eigen_coeffs.points", "count", ("count", "eigen.eigen_coeffs", "points")),
    ("eigen.eigen_coeffs.self_s", "s", ("self", "eigen.eigen_coeffs")),
    ("quadrature.gauss_panels.nodes", "count", ("count", "quadrature.gauss_panels", "nodes")),
    ("quadrature.gauss_panels.self_s", "s", ("self", "quadrature.gauss_panels")),
    ("quadrature.adaptive_simpson.evals", "count",
     ("count", "quadrature.adaptive_simpson", "evals")),
    ("quadrature.adaptive_simpson.self_s", "s", ("self", "quadrature.adaptive_simpson")),
    ("spectral.period_integral.self_s", "s", ("self", "spectral.period_integral")),
    ("spectral.fourier_coeffs.self_s", "s", ("self", "spectral.fourier_coeffs")),
    ("scenario.load.self_s", "s", ("self", "scenario.load")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("cli.csv_bytes", "B", ("bench", "csv_bytes")),
    ("cli.csv_files", "count", ("bench", "csv_files")),
    ("cli.byte_identical_files", "count", ("bench", "byte_identical_files")),
    ("verify.run_checks.self_s", "s", ("self", "verify.run_checks")),
    ("verify.checks", "count", ("count", "verify.run_checks", "checks")),
    ("verify.failed_checks", "count", ("count", "verify.run_checks", "failed_checks")),
    ("rkhs.self_s", "s", ("self", "rkhs.")),
    ("degenerate.self_s", "s", ("self", "degenerate.")),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "counts")

    def __init__(self, name, start, parent, root):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.counts = None


def _twogap_modules():
    return [
        m for n, m in list(sys.modules.items())
        if (n == "twogap" or n.startswith("twogap.")) and isinstance(m, types.ModuleType)
    ]


class Tracer:
    """In-memory span recorder with install/restore of the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.installed_names: set[str] = set()
        self.absent: list[str] = []

    # -- recording -----------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent].root if parent >= 0 else len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, root))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, call_name):
        """Span around one workload call; layer spans nest inside it."""
        span = self._open(ROOT)
        span.counts = {"call": call_name}
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, counts, pre):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if pre is not None:
                args, kwargs, extra = pre(args, kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result, extra)
            return result

        return wrapper

    # -- install / restore ---------------------------------------------

    def _targets(self):
        """(metric name, owner, attribute, original, counts, pre) to wrap."""
        found = []
        for prefix, mod_name, attr, counts, pre in TARGETS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(f"{prefix} ({mod_name})")
                continue
            if attr == "*":
                names = [
                    n for n in getattr(mod, "__all__", ())
                    if isinstance(getattr(mod, n, None), types.FunctionType)
                ]
                if not names:
                    self.absent.append(f"{prefix} ({mod_name} has no public functions)")
                for n in names:
                    found.append((f"{prefix}.{n}", mod, n, getattr(mod, n), counts, pre))
                continue
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = vars(owner).get(meth) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{prefix} ({mod_name}.{attr})")
                continue
            found.append((prefix, owner, meth, fn, counts, pre))
        return found

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = _twogap_modules()
        for name, owner, attr, fn, counts, pre in self._targets():
            wrapper = self._wrap(name, fn, counts, pre)
            sites = [owner] if isinstance(owner, type) else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, key, wrapper)
                        self._restore.append((site, key, fn))
            self.installed_names.add(name)

    def uninstall(self):
        while self._restore:
            site, key, fn = self._restore.pop()
            setattr(site, key, fn)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- metrics -------------------------------------------------------

    def is_absent(self, how) -> bool:
        kind = how[0]
        if kind == "bench":
            return False
        if kind == "kept_cells":
            prefixes = ("evolution.evolve", "multipliers.apply")
        elif kind == "cesaro_inner":
            prefixes = ("evolution.cesaro_decay", "packets.inner")
        else:
            prefixes = (how[1],)
        return not all(
            any(n == p or n.startswith(p) for n in self.installed_names) for p in prefixes
        )

    def take(self):
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans, bench_counts, absent=lambda how: False):
    """Per-layer metric values of one pass of spans (absent ones are None)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start

    def has_ancestor(s, name):
        p = s.parent
        while p >= 0:
            if spans[p].name == name:
                return spans[p]
            p = spans[p].parent
        return None

    out = {}
    for metric, unit, how in LAYER_METRICS:
        if absent(how):
            out[metric] = None
            continue
        kind = how[0]
        if kind == "bench":
            out[metric] = float(bench_counts.get(how[1], 0))
        elif kind == "self":
            out[metric] = sum(
                s.end - s.start - child[i]
                for i, s in enumerate(spans)
                if s.name == how[1] or (how[1].endswith(".") and s.name.startswith(how[1]))
            )
        elif kind == "calls":
            out[metric] = float(sum(1 for s in spans if s.name == how[1]))
        elif kind == "count":
            out[metric] = float(
                sum(s.counts[how[2]] for s in spans if s.name == how[1] and s.counts)
            )
        elif kind == "kept_cells":
            kept = sum(s.counts["cells_out"] for s in spans if s.name == "evolution.evolve")
            swept = sum(
                s.counts["cells_out"]
                for s in spans
                if s.name == "multipliers.apply" and has_ancestor(s, "evolution.evolve")
            )
            out[metric] = kept / swept if swept else 0.0
        elif kind == "cesaro_inner":
            out[metric] = float(
                sum(
                    1 for s in spans
                    if s.name == "packets.inner" and has_ancestor(s, "evolution.cesaro_decay")
                )
            )
    return out


def coverage(spans):
    """Share of root-call time spent inside some layer span."""
    total = sum(s.end - s.start for s in spans if s.name == ROOT)
    inside = sum(
        s.end - s.start for s in spans if s.parent >= 0 and spans[s.parent].name == ROOT
    )
    return inside / total if total else 0.0
