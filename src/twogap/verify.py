"""Invariant battery behind the `twogap verify` command.

Each check returns a CheckResult; PASS/FAIL rows carry the tolerance they
were judged against, INFO rows are measured quantities that have no
pass/fail meaning (regime-dependent discrepancies, limit diagnostics) and
never fail a run.  The battery adapts to the scenario: coupled, decoupled
and transparent geometries get their own identities, degenerate-model
scenarios exercise the explicit conjugations instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degenerate import (
    TwoPointsModel,
    conjugation_residual,
    isometry_ratio,
    two_points_abs2_routes,
    two_points_bounds,
    two_points_multiplier,
)
from .domain import e2pi
from .eigen import eigen_coeffs, eigen_residual, scattering_matrix_routes
from .errors import TwogapError
from .evolution import (
    cesaro_decay,
    decompose,
    evolve,
    evolve_decoupled,
    translation_representation,
)
from .packets import StepPacket
from .scenario import Scenario
from .semigroup import compress_evolve, semigroup_kernel_apply
from .spectral import comb_limit_diagnostic, fourier_coeffs, period_integral
from .transform import cross_term, sigma_norm2

__all__ = ["CheckResult", "run_checks", "render_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS / FAIL / INFO
    measured: float
    tolerance: float | None = None
    detail: str = ""


def _judge(name, measured, tol, detail=""):
    status = "PASS" if measured <= tol else "FAIL"
    return CheckResult(name, status, float(measured), float(tol), detail)


def _info(name, measured, detail=""):
    return CheckResult(name, "INFO", float(measured), None, detail)


# grids for scenarios that give none
_LAMBDA_GRID = np.linspace(-3.0, 3.0, 25)
_TIME_GRID = np.linspace(0.0, 2.0, 5)


def _coupled_checks(sc: Scenario) -> list[CheckResult]:
    bm, dom = sc.bm, sc.domain
    lams = sc.grid("lambda_grid", _LAMBDA_GRID)
    out = []

    res = max(
        float(np.max(np.abs(eigen_residual(bm, dom, eigen_coeffs(bm, dom, la)))))
        for la in lams
    )
    out.append(_judge("eigen_linear_system_residual", res, 1e-12))

    spread = 0.0
    uni = 0.0
    for la in lams:
        routes = scattering_matrix_routes(bm, dom, la)
        vals = [routes["ratio"], routes["quotient"], routes["split"]]
        spread = max(
            spread,
            max(abs(u - v) for i, u in enumerate(vals) for v in vals[i + 1 :]),
        )
        uni = max(uni, abs(abs(routes["ratio"]) - 1.0))
    out.append(_judge("smatrix_route_spread", spread, 1e-12))
    out.append(_judge("smatrix_unimodular", uni, 1e-12))

    out.append(
        _judge(
            "density_period_integral",
            abs(period_integral(bm, dom) - 1.0 / dom.ell),
            1e-10,
        )
    )
    table = fourier_coeffs(bm, domain=dom)
    m0sq = float(np.abs(eigen_coeffs(bm, dom, 0.0).a)) ** 2
    out.append(
        _judge("density_series_normalization", abs(m0sq * table.total() - 1.0), 1e-12)
    )
    return out


def _packet_checks(sc: Scenario) -> list[CheckResult]:
    bm, dom, f = sc.bm, sc.domain, sc.packets["f"]
    out = []
    norm0 = f.norm2()
    ts = sc.grid("time_grid", _TIME_GRID)

    drift = max(abs(evolve(bm, dom, f, t).packet.norm2() - norm0) for t in ts)
    out.append(_judge("evolution_unitary", drift, 1e-10))

    t1, t2 = (float(ts[-1]), float(ts[len(ts) // 2]))
    once = evolve(bm, dom, f, t1 + t2).packet
    twice = evolve(bm, dom, evolve(bm, dom, f, t1).packet, t2).packet
    out.append(_judge("evolution_group_law", np.sqrt(once.distance2(twice)), 1e-9))

    back = evolve(bm, dom, evolve(bm, dom, f, t1).packet, -t1).packet
    out.append(_judge("evolution_inverse", np.sqrt(back.distance2(f)), 1e-9))

    if all(n == 0 for n in f.frequencies()):
        sig = sigma_norm2(bm, dom, f)
        out.append(_judge("transform_isometry", abs(sig - norm0), 1e-6 * max(1.0, norm0)))
        parts = decompose(f, dom)
        pair_gap = 0.0
        for i, pi in enumerate(parts):
            for pj in parts[i + 1 :]:
                if pi.is_empty or pj.is_empty:
                    continue
                pair_gap = max(pair_gap, abs(cross_term(bm, dom, pi, pj)))
        out.append(_judge("transform_cross_terms", pair_gap, 1e-8 * max(1.0, norm0)))

    s = float(ts[-1]) if ts.size else 1.0
    for sign in ("+", "-"):
        rep_f = translation_representation(bm, dom, f, sign)
        rep_uf = translation_representation(bm, dom, evolve(bm, dom, f, s).packet, sign)
        gap = np.sqrt(rep_uf.distance2(rep_f.translate(s)))
        out.append(_judge(f"translation_rep_intertwines_{sign}", gap, 1e-9))
    return out


def _semigroup_checks(sc: Scenario) -> list[CheckResult]:
    bm, dom = sc.bm, sc.domain
    out = []
    lo, hi = dom.component("izero")
    mid = sc.packets.get("mid")
    if mid is None:
        mid = StepPacket.box(lo, hi, 1.0)
    ts = [t for t in sc.grid("time_grid", _TIME_GRID) if t >= 0.0] or [0.5]

    norms = [
        compress_evolve(bm, dom, mid, t).packet.norm2() for t in sorted(ts)
    ]
    growth = max(
        (norms[i + 1] - norms[i] for i in range(len(norms) - 1)), default=0.0
    )
    out.append(_judge("semigroup_contraction_monotone", max(0.0, growth), 1e-10))

    if abs(dom.ell - 1.0) < 1e-12:
        lam = sc.grid("lambda_grid", _LAMBDA_GRID)[:9]
        t = float(ts[min(1, len(ts) - 1)])
        eng_vals = compress_evolve(bm, dom, mid, t).packet.transform(lam)
        ora = semigroup_kernel_apply(bm, mid, t, lam, interval=(lo, hi)).values
        gap = float(np.max(np.abs(eng_vals - ora)))
        out.append(_judge("semigroup_kernel_route", gap, 1e-8))
    return out


def _decoupled_checks(sc: Scenario) -> list[CheckResult]:
    bm, dom = sc.bm, sc.domain
    out = []
    lo, hi = dom.component("izero")
    mid = sc.packets.get("f")
    mid = StepPacket.box(lo, hi, 1.0) if mid is None else mid.restrict(lo, hi)
    if mid.is_empty:
        mid = StepPacket.box(lo, hi, 1.0)
    ts = sc.grid("time_grid", _TIME_GRID)
    drift = max(
        abs(evolve_decoupled(bm, dom, mid, t).packet.norm2() - mid.norm2()) for t in ts
    )
    out.append(_judge("decoupled_unitary", drift, 1e-10))

    period = evolve_decoupled(bm, dom, mid, dom.ell).packet
    gap = np.sqrt(period.distance2(mid.scale(e2pi(-bm.psi))))
    out.append(_judge("decoupled_middle_periodicity", gap, 1e-10))

    halves = sc.packets.get("halves")
    if halves is not None:
        drift = max(
            abs(evolve_decoupled(bm, dom, halves, t).packet.norm2() - halves.norm2())
            for t in ts
        )
        out.append(_judge("decoupled_splice_unitary", drift, 1e-10))
        t1 = float(ts[-1]) if ts.size else 1.0
        back = evolve_decoupled(
            bm, dom, evolve_decoupled(bm, dom, halves, t1).packet, -t1
        ).packet
        out.append(
            _judge("decoupled_splice_inverse", np.sqrt(back.distance2(halves)), 1e-10)
        )
    return out


def _comb_checks(sc: Scenario) -> list[CheckResult]:
    recs = comb_limit_diagnostic(sc.domain, **sc.comb())
    out = []
    masses = [r["window_mass"] for r in recs]
    mono = all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
    out.append(
        CheckResult(
            "comb_window_mass_monotone",
            "PASS" if mono else "FAIL",
            float(masses[-1]),
            None,
            "window mass per period should grow toward 1 as w -> 0: "
            + ", ".join(f"w={r['w']}: {r['window_mass']:.6f}" for r in recs),
        )
    )
    out.append(
        _info(
            "comb_off_window_mass",
            recs[-1]["off_window"],
            "spectral mass per period away from the comb at the smallest w",
        )
    )
    return out


def _model_checks(sc: Scenario) -> list[CheckResult]:
    model = sc.model()
    out = []
    f = sc.packets.get("f") or StepPacket.box(-1.5, -0.5, 1.0)
    if not isinstance(model, TwoPointsModel):
        ts = sc.grid("time_grid", _TIME_GRID)
        res = max(conjugation_residual(model, f, t) for t in ts)
        out.append(_judge("degenerate_conjugation", res, 1e-13))
    else:
        xi = sc.grid("lambda_grid", _LAMBDA_GRID)
        direct, series = two_points_abs2_routes(model, xi)
        out.append(
            _judge(
                "two_points_multiplier_routes",
                float(np.max(np.abs(direct - series))),
                1e-13,
            )
        )
        lo, hi = two_points_bounds(model)["loose"]
        mods = np.abs(two_points_multiplier(model, xi))
        off = max(0.0, lo - float(mods.min()), float(mods.max()) - hi)
        out.append(_judge("two_points_multiplier_bounds", off, 0.0, "w/2 <= |a| <= 2/w"))
        left = f.restrict(-np.inf, 0.0)
        mid = f.restrict(0.0, model.alpha)
        ratios = []
        for probe in (left, mid, f):
            if not probe.is_empty:
                ratios.append(isometry_ratio(model, probe))
        out.append(
            _info(
                "two_points_isometry_spread",
                max(ratios) - min(ratios),
                "V*V is not scalar: ||Vf||^2/||f||^2 varies with f",
            )
        )
    return out


def _decay_checks(sc: Scenario) -> list[CheckResult]:
    bm, dom = sc.bm, sc.domain
    f = sc.packets.get("f")
    g = sc.packets.get("g")
    if f is None or g is None:
        return []
    if any(n != 0 for n in (*f.frequencies(), *g.frequencies())):
        return []
    horizons = [h for h in sc.time_grid if h > 0][-3:]
    if len(horizons) < 2:
        return []
    vals = cesaro_decay(bm, dom, f, g, horizons)
    mono = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    return [
        CheckResult(
            "cesaro_correlation_decay",
            "PASS" if mono else "FAIL",
            float(vals[-1]),
            None,
            "time-averaged |<U(t)f, g>|^2 should shrink with the horizon: "
            + ", ".join(f"T={h:g}: {v:.3e}" for h, v in zip(horizons, vals)),
        )
    ]


def run_checks(sc: Scenario) -> list[CheckResult]:
    """Run every check applicable to the scenario."""
    out: list[CheckResult] = []
    if sc.bm is not None and sc.domain is not None:
        if sc.bm.w > 0.0:
            out += _coupled_checks(sc)
            if "f" in sc.packets:
                out += _packet_checks(sc)
                out += _decay_checks(sc)
            out += _semigroup_checks(sc)
        else:
            out += _decoupled_checks(sc)
    if "comb" in sc.extras and sc.domain is not None:
        out += _comb_checks(sc)
    if "model" in sc.extras:
        out += _model_checks(sc)
    if not out:
        raise TwogapError(
            f"scenario {sc.name!r} selects no checks (needs domain+boundary, "
            "a comb section, or a model section)"
        )
    return out


def render_checks(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        tol = f" tol={r.tolerance:.3g}" if r.tolerance is not None else ""
        detail = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{r.status:4s} {r.name:36s} measured={r.measured:.6g}{tol}{detail}")
    n_fail = sum(1 for r in results if r.status == "FAIL")
    n_pass = sum(1 for r in results if r.status == "PASS")
    n_info = sum(1 for r in results if r.status == "INFO")
    lines.append(f"{n_pass} passed, {n_fail} failed, {n_info} informational")
    return "\n".join(lines)
