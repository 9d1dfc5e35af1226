"""Snapshot every CLI command on every bundled scenario, and diff snapshots.

    PYTHONPATH=src python tools/cli_snapshot.py OUT [--against DIR]

Runs ``twogap.cli.main`` for each command on each bundled scenario, writing
OUT/<command>__<scenario>/ (emptied first) and the exit codes to
OUT/exit_codes.json.  With ``--against DIR`` (an earlier snapshot, e.g. of
another commit), it then reports the exit codes that differ, the count of
byte-identical CSVs, and for each changed column the number of changed cells
and the largest absolute and relative gap between the two snapshots; it
exits 1 if the snapshots differ at all, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import shutil
import sys
from pathlib import Path

from twogap.cli import _COMMANDS, main
from twogap.scenario import bundled_names


def snapshot(out: Path) -> dict:
    """Run every (command, scenario) pair into ``out``; return the exit codes."""
    out.mkdir(parents=True, exist_ok=True)
    codes = {}
    for command in sorted(_COMMANDS):
        for scenario in bundled_names():
            pair = f"{command}__{scenario}"
            shutil.rmtree(out / pair, ignore_errors=True)  # no stale CSV from an earlier run
            args = [command, "--scenario", scenario, "--out", str(out / pair)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes[pair] = main(args)
                except SystemExit as exc:
                    codes[pair] = exc.code
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    return codes


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _column_gaps(old: Path, new: Path) -> dict:
    """Per changed column: [changed cells, max abs gap, max relative gap]."""
    with old.open() as fa, new.open() as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return {"<shape>": [abs(len(rows_a) - len(rows_b)), math.nan, math.nan]}
    gaps = {}
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for name, a, b in zip(rows_a[0], ra, rb):
            if a == b:
                continue
            entry = gaps.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            x, y = _number(a), _number(b)
            if x is None or y is None:
                entry[1] = entry[2] = math.nan
                continue
            gap = abs(x - y)
            scale = max(abs(x), abs(y))
            entry[1] = max(entry[1], gap)
            entry[2] = max(entry[2], gap / scale if scale else 0.0)
    return gaps


def compare(old: Path, new: Path) -> bool:
    """Print the differences between two snapshots; True if there are none."""
    codes_a = json.loads((old / "exit_codes.json").read_text())
    codes_b = json.loads((new / "exit_codes.json").read_text())
    same = [p for p in codes_b if codes_a.get(p) == codes_b[p]]
    print(f"exit codes: {len(same)} of {len(codes_b)} equal")
    for pair in sorted(set(codes_a) | set(codes_b)):
        if codes_a.get(pair) != codes_b.get(pair):
            print(f"  {pair}: {codes_a.get(pair)} -> {codes_b.get(pair)}")
    files_a = {p.relative_to(old) for p in old.glob("*/*.csv")}
    files_b = {p.relative_to(new) for p in new.glob("*/*.csv")}
    for rel in sorted(files_a ^ files_b):
        print(f"  only in {'old' if rel in files_a else 'new'}: {rel}")
    common = sorted(files_a & files_b)
    changed = [rel for rel in common if (old / rel).read_bytes() != (new / rel).read_bytes()]
    print(f"CSVs: {len(common) - len(changed)} of {len(common)} byte-identical")
    for rel in changed:
        for column, (cells, gap, rel_gap) in _column_gaps(old / rel, new / rel).items():
            print(f"  {rel} {column}: {cells} cells, max abs {gap:.3g}, max rel {rel_gap:.3g}")
    return codes_a == codes_b and not (files_a ^ files_b) and not changed


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write the snapshot into")
    parser.add_argument("--against", type=Path, help="an earlier snapshot to diff against")
    args = parser.parse_args(argv)
    snapshot(args.out)
    if args.against is not None and not compare(args.against, args.out):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(_main())
