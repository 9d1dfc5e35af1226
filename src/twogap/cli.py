"""Command-line front end.

    twogap <command> --scenario <file-or-bundled-name> [--out DIR]

Commands write deterministic CSV (every float through repr-faithful %.17g)
so runs can be diffed byte for byte.  No option sets a tolerance: the two
listings of an infinite series, the density Fourier table and the
scatter train, are cut at a fixed tail of 1e-12, and a model whose cut
would need more than 2**20 terms on a side (w below about 9e-3) exits 1.
Exit codes: 0 on success, 1 when a computation or verification fails, 2
for unusable input (bad scenario file, missing packets, malformed
arguments).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .degenerate import TwoPointsModel, conjugation_residual, two_points_abs2_routes
from .domain import e2pi
from .eigen import (
    _route_spread,
    eigen_coeffs,
    eigen_residual,
    eigenfunction_traces,
    scattering_matrix_routes,
)
from .errors import ParseError, TwogapError, ValidationError
from .evolution import evolve_many, scatter
from .multipliers import _geom_terms
from .packets import StepPacket
from .rkhs import BoundaryTrace, boundary_form, trace_condition_residuals
from .scenario import Scenario, bundled_names, bundled_scenario, load_scenario
from .semigroup import compress_evolve_many, norm_decay_profile
from .spectral import SpectralDensity, fourier_coeffs
from .verify import render_checks, run_checks

__all__ = ["main"]


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A text column as it is, a number through %.17g (the first row says
    which is which), with one format string per file."""
    rows = list(rows)
    line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) if rows else ""
    body = ("\n" + line) * len(rows) % tuple(v for row in rows for v in row)
    path.write_text(",".join(header) + body + "\n")


def _packet_rows(f: StepPacket):
    """Step-outline rows (x, re, im, abs2), two per cell edge."""
    x = np.stack((f.lo, f.hi), axis=1).ravel()
    val = np.zeros(len(x), dtype=complex)
    for n, c in f.waves.items():
        val = val + c.repeat(2) * e2pi(n * x)  # a zero value adds an exact zero
    return [(u, v.real, v.imag, abs(v) ** 2) for u, v in zip(x.tolist(), val)]


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _need_pair(sc: Scenario):
    _require(sc.domain is not None, f"scenario {sc.name!r} needs a domain section")
    _require(sc.bm is not None, f"scenario {sc.name!r} needs a boundary section")
    return sc.bm, sc.domain


def _cmd_eigen(sc: Scenario, out: Path) -> int:
    bm, dom = _need_pair(sc)
    lams = sc.grid("lambda_grid")
    co = eigen_coeffs(bm, dom, lams)
    _write_csv(
        out / "eigen.csv",
        ["lambda", "a_re", "a_im", "c_re", "c_im", "residual"],
        zip(lams, co.a.real, co.a.imag, co.c.real, co.c.imag, eigen_residual(bm, dom, co)),
    )
    return 0


def _cmd_density(sc: Scenario, out: Path) -> int:
    bm, dom = _need_pair(sc)
    lams = sc.grid("lambda_grid")
    table = fourier_coeffs(bm, domain=dom)  # before any file: it may refuse the model
    _write_csv(out / "density.csv", ["lambda", "value"], zip(lams, SpectralDensity(bm, dom)(lams)))
    _write_csv(
        out / "density_coeffs.csv",
        ["k", "re", "im"],
        [(k, v.real, v.imag) for k, v in zip(table.k, table.values)],
    )
    return 0


def _cmd_smatrix(sc: Scenario, out: Path) -> int:
    bm, dom = _need_pair(sc)
    lams = sc.grid("lambda_grid")
    routes = scattering_matrix_routes(bm, dom, lams)
    s = routes["ratio"]
    _write_csv(
        out / "smatrix.csv",
        ["lambda", "re", "im", "route_spread"],
        zip(lams, s.real, s.imag, _route_spread(routes)),
    )
    return 0


def _cmd_evolve(sc: Scenario, out: Path) -> int:
    bm, dom = _need_pair(sc)
    f = sc.packet("f")
    norm_rows = []
    for i, result in enumerate(evolve_many(bm, dom, f, sc.grid("time_grid"))):
        _write_csv(
            out / f"evolve_{i:03d}.csv",
            ["x", "re", "im", "abs2"],
            _packet_rows(result.packet),
        )
        norm_rows.append((result.t, result.packet.norm2(), 0))  # exact: the truncation column is a constant
    _write_csv(out / "evolve_norms.csv", ["t", "norm2", "truncation"], norm_rows)
    return 0


def _scatter_listing(bm, dom, f: StepPacket) -> StepPacket:
    """The cells scatter.csv lists: the exact train of ``scatter`` has
    infinitely many, so the file lists its head and its first N + 1 terms,
    with N the smallest count whose geometric tail q^(N+1)/(1 - q) is at
    most the fixed cut 1e-12 (``_geom_terms`` refuses an N above 2**20); the
    terms left out weigh at most w^2 1e-12."""
    return scatter(bm, dom, f).materialize(_geom_terms(bm.q, 1e-12) + 1)


def _cmd_scatter(sc: Scenario, out: Path) -> int:
    bm, dom = _need_pair(sc)
    f = sc.packet("f")
    outgoing = _scatter_listing(bm, dom, f)
    _write_csv(out / "scatter.csv", ["x", "re", "im", "abs2"], _packet_rows(outgoing))
    lams = sc.grid("lambda_grid")
    s = scattering_matrix_routes(bm, dom, lams)["ratio"]
    _write_csv(out / "scatter_smatrix.csv", ["lambda", "re", "im"], zip(lams, s.real, s.imag))
    return 0


def _cmd_semigroup(sc: Scenario, out: Path) -> int:
    bm, dom = _need_pair(sc)
    lo, hi = dom.component("izero")
    mid = sc.packets.get("mid")
    if mid is None:
        mid = StepPacket.box(lo, hi, 1.0)
    ts = sc.grid("time_grid")
    _require(bool(np.all(ts >= 0.0)), "semigroup needs a nonnegative time_grid")
    rows = [(t, r.packet.norm2()) for t, r in zip(ts, compress_evolve_many(bm, dom, mid, ts))]
    prof = norm_decay_profile(bm, 0, ts)
    _write_csv(out / "semigroup_norms.csv", ["t", "norm2"], rows)
    _write_csv(
        out / "semigroup_profile.csv",
        ["t", "engine", "oracle", "reference"],
        zip(prof.t, prof.engine, prof.oracle, prof.reference),
    )
    return 0


def _cmd_kernels(sc: Scenario, out: Path) -> int:
    bm, dom = _need_pair(sc)
    lams = sc.grid("lambda_grid")
    gl, gr = eigenfunction_traces(bm, dom, lams)
    tr = BoundaryTrace(gr[0], gl[0], gr[1], gl[1])
    r1, r2 = trace_condition_residuals(bm, tr)
    _write_csv(
        out / "kernels.csv",
        ["lambda", "residual_direct", "residual_inverse", "self_form_abs"],
        zip(lams, r1, r2, np.abs(boundary_form(tr, tr))),
    )
    return 0


def _cmd_degenerate(sc: Scenario, out: Path) -> int:
    model = sc.model()
    if isinstance(model, TwoPointsModel):
        xi = sc.grid("lambda_grid")
        direct, series = two_points_abs2_routes(model, xi)
        _write_csv(
            out / "degenerate.csv",
            ["xi", "direct", "series_re", "series_im"],
            zip(xi, direct, series.real, series.imag),
        )
        return 0
    f = sc.packet("f")
    ts = sc.grid("time_grid")
    rows = [(t, conjugation_residual(model, f, float(t))) for t in ts]
    _write_csv(out / "degenerate.csv", ["t", "conjugation_residual"], rows)
    return 0


def _cmd_verify(sc: Scenario, out: Path) -> int:
    results = run_checks(sc)
    print(render_checks(results))
    code, nan = {"PASS": 0, "FAIL": 1, "INFO": 2}, float("nan")
    rows = [(r.name, code[r.status], r.measured, nan if r.tolerance is None else r.tolerance)
            for r in results]
    _write_csv(out / "verify.csv", ["name", "status_code", "measured", "tolerance"], rows)
    return 1 if any(r.status == "FAIL" for r in results) else 0


_COMMANDS = {
    "eigen": _cmd_eigen,
    "density": _cmd_density,
    "smatrix": _cmd_smatrix,
    "evolve": _cmd_evolve,
    "scatter": _cmd_scatter,
    "semigroup": _cmd_semigroup,
    "kernels": _cmd_kernels,
    "degenerate": _cmd_degenerate,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twogap",
        description="Momentum-operator scattering on the two-gap exterior domain.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument(
        "--scenario",
        required=True,
        help="path to a scenario JSON file, or the name of a bundled one "
        f"({', '.join(bundled_names())})",
    )
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        candidate = Path(args.scenario)
        if candidate.exists():
            sc = load_scenario(candidate)
        else:
            sc = bundled_scenario(args.scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](sc, out)
    except (ParseError, ValidationError) as exc:
        print(f"twogap: {exc}", file=sys.stderr)
        return 2
    except TwogapError as exc:
        print(f"twogap: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
