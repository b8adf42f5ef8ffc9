#!/usr/bin/env python3
"""Append one line to ``benchmarks/TRAJECTORY.jsonl`` from ledger results.

    python3 benchmarks/ledger/run.py --workload sim-fig3-8w > fig3.txt
    python3 benchmarks/ledger/run.py --workload sim-faults-8w > faults.txt
    python3 benchmarks/append_trajectory.py --note "what changed" \\
        sim-fig3-8w=fig3.txt sim-faults-8w=faults.txt

Each ``WORKLOAD=FILE`` names a file holding the standard output of
``run.py --workload WORKLOAD``; its last line is the JSON result
(``{"correct", "attempted", "failed", "metrics"}``).  The line written keeps
every metric value (five significant digits) and the failure count per
workload, and is stamped with ``git rev-parse --short HEAD`` of ``--repo``
(default: this checkout), so no trajectory line is labelled by hand.  When
tracked files of that checkout differ from HEAD the line also carries
``"dirty": true``: it measured HEAD plus an uncommitted change — the change
of the commit that adds the line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "benchmarks" / "TRAJECTORY.jsonl"


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()


def read_result(path: Path) -> dict:
    """The JSON result line ``run.py --workload`` ends its output with."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    result = json.loads(lines[-1])
    if "metrics" not in result or "failed" not in result:
        raise ValueError(f"{path}: last line is not a run.py --workload result")
    return result


def build_line(
    results: List[Tuple[str, dict]], *, commit: str, dirty: bool, seed: int, note: str
) -> dict:
    cells: Dict[str, Dict[str, float]] = {}
    ops_failed: Dict[str, int] = {}
    for workload, result in results:
        cells[workload] = {
            name: float(f"{metric['value']:.5g}") for name, metric in result["metrics"].items()
        }
        ops_failed[workload] = result["failed"]
    line: dict = {"commit": commit}
    if dirty:
        line["dirty"] = True
    line.update(seed=seed, cells=cells, ops_failed=ops_failed)
    if note:
        line["note"] = note
    return line


def parse_pair(text: str) -> Tuple[str, Path]:
    workload, sep, path = text.partition("=")
    if not sep or not workload or not path:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=FILE, got {text!r}")
    return workload, Path(path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("results", nargs="+", type=parse_pair, metavar="WORKLOAD=FILE")
    parser.add_argument("--seed", type=int, default=100, help="base seed of the runs (default 100)")
    parser.add_argument("--note", default="", help="what the measured commit changed")
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="checkout the results were measured on (default: this one)")
    args = parser.parse_args(argv)

    results = [(workload, read_result(path)) for workload, path in args.results]
    commit = git(args.repo, "rev-parse", "--short", "HEAD")
    dirty = bool(git(args.repo, "status", "--porcelain", "--untracked-files=no"))
    line = build_line(results, commit=commit, dirty=dirty, seed=args.seed, note=args.note)
    with open(TRAJECTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
    print(f"appended {commit}{' (dirty)' if dirty else ''} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
