"""Record the CLI reference outputs that the cli_scenarios workload gates on.

    python3 perfbench/record_reference.py

Runs every command on every bundled scenario in process and writes each
pair's exit code and the text of every CSV it writes to
reference/cli_scenarios.json.  Pairs that exit non-zero are recorded too
(the workload leaves them out).  Re-record only when a change to the CLI
output is intended.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from twogap.cli import _COMMANDS, main  # noqa: E402
from twogap.scenario import bundled_names  # noqa: E402


def record():
    pairs = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for command in _COMMANDS:
            for scenario in bundled_names():
                out = Path(tmp) / f"{command}-{scenario}"
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main([command, "--scenario", scenario, "--out", str(out)])
                files = {}
                if code == 0:
                    files = {p.name: p.read_text() for p in sorted(out.iterdir())}
                shutil.rmtree(out, ignore_errors=True)
                pairs.append(
                    {"command": command, "scenario": scenario, "exit_code": code, "files": files}
                )
    return {"pairs": pairs}


if __name__ == "__main__":
    target = HERE / "reference" / "cli_scenarios.json"
    target.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    kept = sum(1 for p in json.loads(target.read_text())["pairs"] if p["exit_code"] == 0)
    print(f"wrote {target} ({kept} pairs exit 0)")
