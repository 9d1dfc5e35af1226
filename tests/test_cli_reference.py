"""Every CLI command on every bundled scenario against the recorded reference
outputs in perfbench/reference/cli_scenarios.json (read only).

Exit codes must match, the same CSV files must be written, and every CSV
cell must agree under the benchmark's rule |got - want| <= 1e-9 (1 + |want|),
NaN matching NaN; text cells must be equal.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from twogap import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "cli_scenarios.json"
PAIRS = json.loads(REFERENCE.read_text())["pairs"]


def _cells_agree(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= 1e-9 * (1.0 + abs(w))


@pytest.mark.parametrize("ref", PAIRS, ids=[f"{p['command']}-{p['scenario']}" for p in PAIRS])
def test_cli_matches_reference(tmp_path, ref):
    argv = [ref["command"], "--scenario", ref["scenario"], "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == ref["exit_code"]
    written = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert sorted(written) == sorted(ref["files"])
    for name, want in ref["files"].items():
        got_rows = [line.split(",") for line in written[name].splitlines()]
        want_rows = [line.split(",") for line in want.splitlines()]
        assert got_rows[0] == want_rows[0], name
        assert len(got_rows) == len(want_rows), name
        for i, (gr, wr) in enumerate(zip(got_rows[1:], want_rows[1:])):
            assert len(gr) == len(wr), f"{name} row {i}"
            for head, g, w in zip(want_rows[0], gr, wr):
                assert _cells_agree(g, w), f"{name} row {i} column {head}: {g} vs reference {w}"
