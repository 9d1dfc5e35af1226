"""The snapshot diff of tools/cli_snapshot.py on small synthetic snapshots."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("cli_snapshot", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(root: Path, csvs: dict) -> Path:
    root.mkdir()
    (root / "exit_codes.json").write_text(json.dumps({"evolve__demo": 0}))
    for rel, text in csvs.items():
        (root / rel).parent.mkdir(exist_ok=True)
        (root / rel).write_text(text)
    return root


_CSV = "t,norm2\n0,1\n0.5,0.25\n"


def test_identical_snapshots(tool, tmp_path, capsys):
    old = _snapshot(tmp_path / "old", {"evolve__demo/norms.csv": _CSV})
    new = _snapshot(tmp_path / "new", {"evolve__demo/norms.csv": _CSV})
    assert tool.compare(old, new) is True
    assert "CSVs: 1 of 1 byte-identical" in capsys.readouterr().out


def test_changed_cell_prints_its_gap(tool, tmp_path, capsys):
    old = _snapshot(tmp_path / "old", {"evolve__demo/norms.csv": _CSV})
    new = _snapshot(tmp_path / "new", {"evolve__demo/norms.csv": _CSV.replace("0.25", "0.5")})
    assert tool.compare(old, new) is False
    out = capsys.readouterr().out
    assert "CSVs: 0 of 1 byte-identical" in out
    assert "norms.csv norm2: 1 cells, max abs 0.25, max rel 0.5" in out


def test_one_sided_csv(tool, tmp_path, capsys):
    old = _snapshot(tmp_path / "old", {"evolve__demo/norms.csv": _CSV})
    new = _snapshot(
        tmp_path / "new",
        {"evolve__demo/norms.csv": _CSV, "evolve__demo/extra.csv": _CSV},
    )
    assert tool.compare(old, new) is False
    assert "only in new: evolve__demo/extra.csv" in capsys.readouterr().out
