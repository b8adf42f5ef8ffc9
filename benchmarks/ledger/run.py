#!/usr/bin/env python3
"""The performance ledger: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/ledger/run.py                     every workload, untraced
    python3 benchmarks/ledger/run.py --trace 1           per-layer metrics (traced pass)
    python3 benchmarks/ledger/run.py --quick             < 15 s smoke, NOT comparable
    python3 benchmarks/ledger/run.py --selfcheck         two sets of runs must agree
    python3 benchmarks/ledger/run.py --workload sim-fig3-8w --seed 3 --seconds 20 --trace 0

Each workload runs in a fresh subprocess (``measure.py``) from this
single-threaded driver; with ``--workload`` the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero only on a harness error — failed operations are
counted and printed, never averaged away.  README.md has the metric
dictionary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Set-up runs per workload; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: A workload (its set-up samples and its measured run together) that takes
#: longer than this is a harness error.
WORKLOAD_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """The benchmark itself failed (as opposed to an operation it measured)."""


def contract() -> dict:
    """``BENCHMARK.json``: workload names, metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def child(workload: str, *, seed: int, seconds: float, trace: int, quick: bool,
          deadline: float, setup_only: bool = False) -> dict:
    """Run ``measure.py`` once and return the JSON object it printed.

    The subprocess leads its own process group, so that on a timeout the
    realexec workers it forked are stopped with it.
    """
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(OUT),
    ]
    if quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise HarnessError(f"{workload}: no result within {WORKLOAD_TIMEOUT_S} s") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise HarnessError(f"{workload}: measure.py exited with code {process.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, *, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One workload: set-up samples, the measured run, the contract's result."""
    common = dict(
        seed=seed, seconds=seconds, quick=quick, deadline=time.monotonic() + WORKLOAD_TIMEOUT_S
    )
    # The measured run sets up too, which makes the last sample.
    extra_setups = 0 if (quick or trace) else SETUP_SAMPLES - 1
    setups = [
        child(name, trace=0, setup_only=True, **common)["setup_s"] for _ in range(extra_setups)
    ]
    outcome = child(name, trace=trace, **common)
    setups.append(outcome["setup_s"])
    metrics = outcome["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    return {
        "workload": name,
        "seed": seed,
        "reps": outcome["reps"],
        "quick": quick,
        "nodes": outcome["nodes"],
        "tree_digest": outcome["tree_digest"],
        "trace_file": outcome.get("trace_file"),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def units(doc: dict, trace: int) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def print_result(result: dict, unit_of: Dict[str, str]) -> None:
    tag = "  [--quick: NOT comparable with full runs]" if result["quick"] else ""
    print(
        f"== {result['workload']}  seed {result['seed']}  reps {result['reps']}  "
        f"nodes {result['nodes']}  tree {result['tree_digest']}{tag}"
    )
    missing = sorted(set(unit_of) - set(result["metrics"]))
    unknown = sorted(set(result["metrics"]) - set(unit_of))
    if missing or unknown:
        raise HarnessError(
            f"{result['workload']}: metrics differ from BENCHMARK.json "
            f"(missing {missing}, unknown {unknown})"
        )
    for name, unit in unit_of.items():
        print(f"  {name:34s} {result['metrics'][name]:>16.6g} {unit}")
    print(f"  {'ops_attempted':34s} {result['attempted']:>16d} count")
    print(f"  {'ops_failed':34s} {result['failed']:>16d} count")
    if result["trace_file"]:
        print(f"  chrome trace: {result['trace_file']}")


def contract_line(result: dict, unit_of: Dict[str, str]) -> str:
    """The one-line JSON result the driver of the benchmark reads."""
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in unit_of.items()
            },
        }
    )


def selfcheck(doc: dict, *, seed: int, seconds: float, quick: bool) -> int:
    """Run every workload twice, in alternating order; the sets must agree.

    For each end-to-end metric the second set may differ from the first by
    at most the metric's bound (relative).  Prints the observed difference
    per metric x workload; returns the number of violations.
    """
    names = [spec["name"] for spec in doc["workloads"]]
    first = [run_workload(n, seed=seed, seconds=seconds, trace=0, quick=quick) for n in names]
    second = [
        run_workload(n, seed=seed, seconds=seconds, trace=0, quick=quick)
        for n in reversed(names)
    ][::-1]
    violations = 0
    print(f"{'workload':18s} {'metric':16s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for a, b in zip(first, second):
        for metric in doc["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            x, y = a["metrics"][name], b["metrics"][name]
            diff = abs(y - x) / abs(x) if x else float(y != x)
            flag = "" if diff <= bound else "  <-- exceeds bound"
            violations += bool(flag)
            print(f"{a['workload']:18s} {name:16s} {x:12.5g} {y:12.5g} {diff:8.4f} {bound:6.2f}{flag}")
        failed = a["failed"] + b["failed"]
        print(f"{a['workload']:18s} ops_failed {failed}")
    print(f"selfcheck: {violations} metric x workload pair(s) outside their bound")
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=100, help="base seed (default 100)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass: per-layer metrics and a Chrome trace")
    parser.add_argument("--quick", action="store_true",
                        help="2 reps at reduced sizes; same metric names, not comparable")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and compare against the bounds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no library under {ROOT / 'src'}: nothing to measure", file=sys.stderr)
        return 2
    doc = contract()
    seconds = args.seconds if args.seconds is not None else doc["run_seconds"]
    names = [spec["name"] for spec in doc["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(names)})")

    try:
        if args.selfcheck:
            return 1 if selfcheck(doc, seed=args.seed, seconds=seconds, quick=args.quick) else 0
        unit_of = units(doc, args.trace)
        results = []
        for name in [args.workload] if args.workload else names:
            result = run_workload(
                name, seed=args.seed, seconds=seconds, trace=args.trace, quick=args.quick
            )
            print_result(result, unit_of)
            results.append(result)
        OUT.mkdir(parents=True, exist_ok=True)
        kind = "layers" if args.trace else "end-to-end"
        (OUT / f"last-{kind}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
        if args.workload:
            print(contract_line(results[0], unit_of))
    except HarnessError as error:
        print(f"run.py: harness error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
