"""Scenario files and the command-line front end."""

import json
from importlib import resources

import numpy as np
import pytest

from twogap.cli import _COMMANDS, main
from twogap.errors import ParseError, ValidationError
from twogap.scenario import (
    SCHEMA_VERSION,
    bundled_names,
    bundled_scenario,
    load_scenario,
)

GOOD = {
    "schema_version": 1,
    "name": "roundtrip",
    "domain": {"alpha": 2.0, "beta": 3.0},
    "boundary": {"w": 0.8, "theta": 0.1, "phi": 0.0, "psi": 0.25},
    "packets": {
        "f": [{"lo": -0.5, "hi": 0.0, "value": [1.0, 0.0]}],
        "g": [
            {"lo": -2.0, "hi": -1.5, "value": [0.5, 0.5], "freq": 1},
            {"lo": -1.5, "hi": -1.0, "value": [0.0, -1.0]},
        ],
    },
    "time_grid": {"start": 0.0, "stop": 2.0, "num": 5},
    "lambda_grid": [-1.0, 0.0, 1.0],
}


def write(tmp_path, payload, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_load_good_scenario(tmp_path):
    sc = load_scenario(write(tmp_path, GOOD))
    assert sc.name == "roundtrip"
    assert sc.domain.alpha == 2.0
    assert sc.bm.w == 0.8
    assert set(sc.packets) == {"f", "g"}
    assert sc.packet("g").n_cells == 2
    assert np.allclose(sc.time_grid, np.linspace(0.0, 2.0, 5))
    assert np.allclose(sc.lambda_grid, [-1.0, 0.0, 1.0])
    with pytest.raises(ParseError):
        sc.packet("missing")


def test_bundled_inventory():
    names = bundled_names()
    assert "example_5_9" in names
    assert "w_zero_boundstates" in names
    for name in names:
        sc = bundled_scenario(name)
        assert sc.name == name
    with pytest.raises(ParseError):
        bundled_scenario("no_such_scenario")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("schema_version"),
        lambda d: d.update(schema_version=99),
        lambda d: d.update(name=7),
        lambda d: d.update(domain=[2.0, 3.0]),
        lambda d: d["domain"].pop("beta"),
        lambda d: d["boundary"].update(w=True),
        lambda d: d.update(packets={"f": []}),
        lambda d: d["packets"].update(f=[{"lo": 0, "hi": 1, "value": [1]}]),
        lambda d: d["packets"].update(f=[{"lo": 0, "hi": 1, "value": [1, 0], "freq": 0.5}]),
        lambda d: d.update(time_grid={"start": 0.0, "stop": 1.0, "num": 0}),
        lambda d: d.update(time_grid="dense"),
        lambda d: d.update(tolerances=[1e-9]),
        lambda d: d.update(tolerances={"esp": 1e-3}),
        lambda d: d.update(tolerances={"tol": 1e-8}),
        lambda d: d["boundary"].update(psy=0.2),
    ],
)
def test_parse_errors(tmp_path, mutate):
    payload = json.loads(json.dumps(GOOD))
    mutate(payload)
    with pytest.raises(ParseError):
        load_scenario(write(tmp_path, payload))


def test_validation_separate_from_parse(tmp_path):
    payload = json.loads(json.dumps(GOOD))
    payload["domain"]["alpha"] = 0.5  # structurally fine, physically not
    with pytest.raises(ValidationError):
        load_scenario(write(tmp_path, payload))


def test_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    with pytest.raises(ParseError):
        load_scenario(p)
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "absent.json")


def test_extras_preserved(tmp_path):
    payload = json.loads(json.dumps(GOOD))
    payload["comb"] = {"w_sequence": [0.5, 0.1], "window_width": 0.1}
    sc = load_scenario(write(tmp_path, payload))
    assert sc.extras["comb"]["window_width"] == 0.1
    assert "domain" not in sc.extras


def test_schema_version_constant():
    assert SCHEMA_VERSION == 1


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------


def test_cli_eigen_outputs(tmp_path):
    out = tmp_path / "run"
    rc = main(["eigen", "--scenario", "example_5_9", "--out", str(out)])
    assert rc == 0
    text = (out / "eigen.csv").read_text()
    header = text.splitlines()[0]
    assert header == "lambda,a_re,a_im,c_re,c_im,residual"
    assert len(text.splitlines()) > 2


def test_cli_density_and_smatrix(tmp_path):
    out = tmp_path / "run"
    assert main(["density", "--scenario", "example_5_9", "--out", str(out)]) == 0
    assert (out / "density.csv").exists()
    assert (out / "density_coeffs.csv").exists()
    assert main(["smatrix", "--scenario", "example_5_9", "--out", str(out)]) == 0
    rows = (out / "smatrix.csv").read_text().splitlines()
    assert rows[0] == "lambda,re,im,route_spread"
    # unimodularity visible straight from the file
    for row in rows[1:4]:
        _, re_s, im_s, _ = row.split(",")
        assert abs(complex(float(re_s), float(im_s))) == pytest.approx(1.0, abs=1e-10)


def test_cli_evolve_writes_norms(tmp_path):
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", "example_5_9", "--out", str(out)]) == 0
    norms = (out / "evolve_norms.csv").read_text().splitlines()
    assert norms[0] == "t,norm2,truncation"
    vals = [float(r.split(",")[1]) for r in norms[1:]]
    assert np.allclose(vals, vals[0], atol=1e-9)
    assert (out / "evolve_000.csv").exists()


def test_cli_evolve_decoupled(tmp_path):
    out = tmp_path / "run"
    assert main(["evolve", "--scenario", "w_zero_boundstates", "--out", str(out)]) == 0
    assert (out / "evolve_norms.csv").exists()


def test_cli_scatter_and_semigroup(tmp_path):
    out = tmp_path / "run"
    assert main(["scatter", "--scenario", "example_5_9", "--out", str(out)]) == 0
    assert (out / "scatter.csv").exists()
    assert (out / "scatter_smatrix.csv").exists()
    assert main(["semigroup", "--scenario", "example_5_9", "--out", str(out)]) == 0
    rows = (out / "semigroup_norms.csv").read_text().splitlines()
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_cli_kernels_and_degenerate(tmp_path):
    out = tmp_path / "run"
    assert main(["kernels", "--scenario", "example_5_9", "--out", str(out)]) == 0
    assert (out / "kernels.csv").exists()
    assert main(["degenerate", "--scenario", "two_points", "--out", str(out)]) == 0
    assert (out / "degenerate.csv").exists()


def test_cli_verify_passes(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["verify", "--scenario", "example_5_9", "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in captured
    assert (out / "verify.csv").exists()


def test_cli_exit_codes(tmp_path):
    # unknown scenario name -> 2
    assert main(["eigen", "--scenario", "missing_name", "--out", str(tmp_path)]) == 2
    # structurally broken file -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["eigen", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    # scenario without a domain cannot run the coupled commands -> 2
    assert main(["eigen", "--scenario", "two_points", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "three_points", "w": 0.5, "alpha": 2.0},
        {"kind": "one_interval", "theta": 0.1},
        {"kind": "two_points", "w": 0.5},
        {"kind": "one_point", "thetta": 0.3},
        {"kind": "two_points", "w": 0.5, "alpha": 2.0, "theta": 0.1},
    ],
)
@pytest.mark.parametrize("command", ["degenerate", "verify"])
def test_cli_bad_model_exits_2(tmp_path, command, model):
    payload = {
        "schema_version": 1,
        "packets": {"f": [{"lo": -1.0, "hi": -0.5, "value": [1.0, 0.0]}]},
        "time_grid": [0.0, 1.0],
        "lambda_grid": [-1.0, 1.0],
        "model": model,
    }
    path = write(tmp_path, payload)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "comb",
    [
        {"w_seq": [0.5, 0.1]},
        {"w_sequence": []},
        {"w_sequence": [0.5, 0.0]},
        {"w_sequence": "0.5"},
        [1, 2],
        {"w_sequence": [0.5, 0.1], "window_widht": 0.3},
        {"w_sequence": [0.5], "psi": 0.0},
    ],
)
def test_cli_bad_comb_exits_2(tmp_path, comb):
    payload = json.loads((resources.files("twogap") / "scenarios/comb_limit.json").read_text())
    payload["comb"] = comb
    path = write(tmp_path, payload)
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path)]) == 2


# exit codes of every (command, bundled scenario) pair that does not exit 0:
# two_points has no domain (2), w_zero_boundstates is decoupled (1 for the
# coupled-only commands) and only two_points has a degenerate model
NONZERO_EXIT = {
    **{(cmd, "two_points"): 2 for cmd in
       ("density", "eigen", "evolve", "kernels", "scatter", "semigroup", "smatrix")},
    **{(cmd, "w_zero_boundstates"): 1 for cmd in
       ("density", "eigen", "kernels", "scatter", "semigroup", "smatrix")},
    **{("degenerate", sc): 2 for sc in
       ("comb_limit", "example_5_8", "example_5_9", "w_one_splice", "w_zero_boundstates")},
}
CLI_PAIRS = [(cmd, sc) for cmd in sorted(_COMMANDS) for sc in bundled_names()]


@pytest.mark.parametrize("command,scenario", CLI_PAIRS)
def test_cli_outputs_deterministic(tmp_path, capsys, command, scenario):
    # the second run is served from the shared multiplier cache
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main([command, "--scenario", scenario, "--out", str(out)])
        assert rc == NONZERO_EXIT.get((command, scenario), 0)
    files = sorted(p.name for p in out1.glob("*.csv"))
    assert files == sorted(p.name for p in out2.glob("*.csv"))
    assert bool(files) == (rc == 0 or command == "verify")
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# the series cut is fixed, so there is no --eps and no tolerances section:
# every value, the old default 1e-12 included, is unusable input (exit 2)
@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0", "-1e-12", "1e-12"])
@pytest.mark.parametrize("command", ["evolve", "scatter", "verify"])
def test_cli_bad_eps_exits_2(tmp_path, capsys, command, eps):
    args = [command, "--scenario", "example_5_9", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(args + [f"--eps={eps}"])
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1.0, 1e-12])
def test_scenario_bad_eps_rejected(tmp_path, capsys, eps):
    payload = json.loads(json.dumps(GOOD))
    payload["tolerances"] = {"eps": eps}
    path = write(tmp_path, payload)  # json writes NaN / Infinity literals
    with pytest.raises(ParseError, match="fixed"):
        load_scenario(path)
    for command in ("evolve", "scatter", "verify"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "fixed" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _nonfinite(payload, where, value):
    if where == "time_grid":
        payload["time_grid"] = [0.5, value]
    elif where == "lambda_grid":
        payload["lambda_grid"] = [-1.0, value]
    else:
        payload["packets"]["f"][0]["value"] = [value, 0.0]
    return payload


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["time_grid", "lambda_grid", "packet value"])
def test_scenario_nonfinite_number_rejected(tmp_path, where, value):
    payload = _nonfinite(json.loads(json.dumps(GOOD)), where, value)
    path = write(tmp_path, payload)  # json writes NaN / Infinity literals
    with pytest.raises(ParseError):
        load_scenario(path)


@pytest.mark.parametrize("where", ["time_grid", "lambda_grid", "packet value"])
@pytest.mark.parametrize("command", ["evolve", "semigroup", "verify"])
def test_cli_nonfinite_number_exits_2(tmp_path, command, where):
    payload = json.loads((resources.files("twogap") / "scenarios/example_5_9.json").read_text())
    path = write(tmp_path, _nonfinite(payload, where, float("inf")))
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
