"""Scenario files: JSON descriptions of a run (geometry, coupling, packets,
grids) consumed by the command-line tools; no tolerance is set in them.

Malformed input (bad JSON, wrong types, missing keys, unknown keys at the
top level or inside a section) raises ParseError; structurally sound input
with impossible values (alpha <= 1, w outside [0, 1], empty grids) raises
ValidationError out of the constructors.  The distinction matters to the
CLI, which maps both onto exit code 2 but wants to phrase the messages
differently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .degenerate import OneIntervalModel, OnePointModel, TwoPointsModel
from .domain import (
    BoundaryMatrix,
    ExteriorDomain,
    make_boundary_matrix,
    make_domain,
)
from .errors import ParseError
from .packets import StepPacket, sum_packets

__all__ = ["Scenario", "load_scenario", "bundled_scenario", "bundled_names"]

SCHEMA_VERSION = 1
# optional sections kept verbatim in Scenario.extras and parsed on demand
_EXTRA_KEYS = ("comb", "model")
_TOP_KEYS = {
    "schema_version", "name", "domain", "boundary", "packets", "time_grid", "lambda_grid",
    *_EXTRA_KEYS,
}


@dataclass(frozen=True)
class Scenario:
    name: str
    domain: ExteriorDomain | None
    bm: BoundaryMatrix | None
    packets: dict[str, StepPacket]
    time_grid: np.ndarray
    lambda_grid: np.ndarray
    extras: dict = field(default_factory=dict)

    def packet(self, name: str) -> StepPacket:
        try:
            return self.packets[name]
        except KeyError:
            raise ParseError(
                f"scenario {self.name!r} defines no packet {name!r}"
            ) from None

    def grid(self, name: str, default=None) -> np.ndarray:
        """``lambda_grid`` or ``time_grid``; ``default`` when the file gives
        none, and ParseError when there is no default either."""
        values = getattr(self, name)
        if values.size:
            return values
        if default is None:
            raise ParseError(f"scenario {self.name!r} needs a {name}")
        return default

    def model(self):
        """The degenerate model described by the ``model`` section."""
        spec = self.extras.get("model")
        if not isinstance(spec, dict):
            raise ParseError(f"scenario {self.name!r} needs a model section")
        kind = spec.get("kind")
        if kind == "two_points":
            _object(spec, {"kind", "w", "alpha"}, "model")
            return TwoPointsModel(
                w=_as_float(_need(spec, "w", "model"), "model.w"),
                alpha=_as_float(_need(spec, "alpha", "model"), "model.alpha"),
            )
        if kind == "one_point":
            _object(spec, {"kind", "theta"}, "model")
            return OnePointModel(theta=_as_float(spec.get("theta", 0.0), "model.theta"))
        if kind == "one_interval":
            _object(spec, {"kind", "theta", "alpha"}, "model")
            return OneIntervalModel(
                theta=_as_float(spec.get("theta", 0.0), "model.theta"),
                alpha=_as_float(_need(spec, "alpha", "model"), "model.alpha"),
            )
        raise ParseError(f"unknown model kind {kind!r}")

    def comb(self) -> dict:
        """Keyword arguments of ``spectral.comb_limit_diagnostic`` (all but
        the domain) from the ``comb`` section."""
        spec = _object(self.extras.get("comb"), {"w_sequence", "window_width"}, "comb")
        ws = _need(spec, "w_sequence", "comb")
        if not isinstance(ws, list) or not ws:
            raise ParseError("comb.w_sequence must be a non-empty list of numbers")
        return {
            "w_sequence": [_as_float(w, "comb.w_sequence") for w in ws],
            "window_width": _as_float(spec.get("window_width", 0.1), "comb.window_width"),
        }


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"missing key {key!r} in {where}")
    return obj[key]


def _object(obj, keys: set, where: str) -> dict:
    """obj if it is an object whose keys all lie in ``keys``, else ParseError
    (a misspelled key would otherwise fall back to its default unnoticed)."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    unknown = sorted(set(obj) - keys)
    if unknown:
        raise ParseError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    return obj


def _as_float(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"expected a number for {where}, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number for {where}, got {x!r}")
    return value


def _grid(spec, where: str) -> np.ndarray:
    """A grid is either an explicit list or {start, stop, num}."""
    if spec is None:
        return np.array([])
    if isinstance(spec, list):
        return np.array([_as_float(v, where) for v in spec])
    if isinstance(spec, dict):
        _object(spec, {"start", "stop", "num"}, where)
        start = _as_float(_need(spec, "start", where), where)
        stop = _as_float(_need(spec, "stop", where), where)
        num = _need(spec, "num", where)
        if isinstance(num, bool) or not isinstance(num, int) or num < 1:
            raise ParseError(f"{where}.num must be a positive integer")
        return np.linspace(start, stop, num)
    raise ParseError(f"{where} must be a list or a start/stop/num object")


def _parse_cell(cell, where: str):
    _object(cell, {"lo", "hi", "value", "freq"}, where)
    lo = _as_float(_need(cell, "lo", where), f"{where}.lo")
    hi = _as_float(_need(cell, "hi", where), f"{where}.hi")
    value = _need(cell, "value", where)
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}.value must be [re, im]")
    real, imag = (_as_float(v, f"{where}.value") for v in value)
    freq = cell.get("freq", 0)
    if isinstance(freq, bool) or not isinstance(freq, int):
        raise ParseError(f"{where}.freq must be an integer")
    return StepPacket.box(lo, hi, complex(real, imag), freq=freq)


def _parse_packets(spec, where: str) -> dict[str, StepPacket]:
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ParseError(f"{where} must map packet names to cell lists")
    out = {}
    for name, cells in spec.items():
        if not isinstance(cells, list) or not cells:
            raise ParseError(f"{where}.{name} must be a non-empty list of cells")
        boxes = [_parse_cell(c, f"{where}.{name}[{i}]") for i, c in enumerate(cells)]
        out[name] = boxes[0] if len(boxes) == 1 else sum_packets(boxes)  # a box is canonical
    return out


def _parse(text: str, origin: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{origin}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{origin}: top level must be an object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"{origin}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    if "tolerances" in raw:
        raise ParseError(f"{origin}: tolerances cannot be set; the series cut is fixed at 1e-12")
    _object(raw, _TOP_KEYS, origin)
    name = raw.get("name", Path(origin).stem)
    if not isinstance(name, str):
        raise ParseError(f"{origin}: name must be a string")

    domain = None
    if "domain" in raw:
        d = _object(raw["domain"], {"alpha", "beta"}, f"{origin}: domain")
        domain = make_domain(
            _as_float(_need(d, "alpha", "domain"), "domain.alpha"),
            _as_float(_need(d, "beta", "domain"), "domain.beta"),
        )

    bm = None
    if "boundary" in raw:
        b = _object(raw["boundary"], {"w", "theta", "phi", "psi"}, f"{origin}: boundary")
        bm = make_boundary_matrix(
            w=_as_float(_need(b, "w", "boundary"), "boundary.w"),
            theta=_as_float(b.get("theta", 0.0), "boundary.theta"),
            phi=_as_float(b.get("phi", 0.0), "boundary.phi"),
            psi=_as_float(b.get("psi", 0.0), "boundary.psi"),
        )

    return Scenario(
        name=name,
        domain=domain,
        bm=bm,
        packets=_parse_packets(raw.get("packets"), "packets"),
        time_grid=_grid(raw.get("time_grid"), "time_grid"),
        lambda_grid=_grid(raw.get("lambda_grid"), "lambda_grid"),
        extras={k: raw[k] for k in _EXTRA_KEYS if k in raw},
    )


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file on disk."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {p}: {exc}") from exc
    return _parse(text, str(p))


def bundled_names() -> list[str]:
    """Names of the scenarios shipped inside the package."""
    pkg = resources.files("twogap") / "scenarios"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    """Load a scenario shipped with the package by bare name."""
    pkg = resources.files("twogap") / "scenarios"
    entry = pkg / f"{name}.json"
    try:
        text = entry.read_text()
    except (FileNotFoundError, OSError):
        raise ParseError(
            f"no bundled scenario {name!r}; available: {', '.join(bundled_names())}"
        ) from None
    return _parse(text, f"bundled:{name}")
