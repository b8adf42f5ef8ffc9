"""SCALE — the 1k-worker engine run and the 10k-worker completion check.

Every simulated run keeps its completion state in one process-wide interned
trie arena (:class:`repro.core.arena.TrieArena`).  This file checks the
simulator's behaviour at a thousand workers and beyond:

* ``test_scale_1k_arena`` runs the acceptance scenario — 1,000 workers racing
  a 2,001-node random tree (0.05 s mean node time, depth-first, pruning off).
* ``test_scale_tier_and_ladder`` (full-scale mode only) re-runs the tier in
  a fresh subprocess — the only way to get an honest peak-RSS number — and
  then climbs the completion ladder: **5,000 and 10,000 workers** on the
  full 3,501-node Figure 3 workload, reporting makespan, wall clock and peak
  RSS.

``python benchmarks/bench_scale.py`` runs the full-scale measurement directly
(no pytest needed); ``REPRO_BENCH_SCALE`` shrinks the tier for quick local
iteration (e.g. ``0.2`` → 200 workers / 401 nodes).  The ladder is a manual
run: no CI job climbs it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from _harness import effective_scale, print_experiment
from repro.analysis.figures import figure3_tree
from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.distributed import AlgorithmConfig, run_tree_simulation

#: The acceptance tier: 1,000 workers, tree sized at ``2 × workers + 1``.
TIER_WORKERS = 1000
#: Run seed (worker placement, gossip fanout) and tree seed.
RUN_SEED = 3
TREE_SEED = 42
#: Full-scale completion ladder: runs on the paper's Figure 3 tree at each
#: rung, topping out at 10k workers.
LADDER_WORKERS = (5_000, 10_000)

_FULL_SCALE = os.environ.get("REPRO_FULL_SCALE") == "1"


def tier_workers() -> int:
    """Worker count for the acceptance tier (env-scaled for local iteration)."""
    return max(50, int(round(TIER_WORKERS * effective_scale(1.0))))


def tier_tree(workers: int):
    """The figure-3-style workload for ``workers``: a seeded random tree."""
    nodes = 2 * workers + 1
    return generate_random_tree(
        RandomTreeSpec(
            nodes=nodes,
            mean_node_time=0.05,
            seed=TREE_SEED,
            name=f"scale-{nodes}n",
        )
    )


def run_engine(tree, workers: int):
    """One deterministic run of the distributed algorithm on ``tree``."""
    return run_tree_simulation(
        tree,
        workers,
        config=AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST),
        seed=RUN_SEED,
        prune=False,
        compute_uniprocessor_time=False,
    )


def _check(result) -> None:
    assert result.all_terminated, "scale run must reach global termination"
    counters = result.engine_counters
    assert counters["events_processed"] > 0 and counters["peak_heap_len"] > 0


@pytest.mark.benchmark(group="scale")
def test_scale_1k_arena(benchmark):
    workers = tier_workers()
    tree = tier_tree(workers)
    result = benchmark.pedantic(
        lambda: run_engine(tree, workers), rounds=1, iterations=1
    )
    _check(result)


# ---------------------------------------------------------------------- #
# Subprocess measurement (full-scale mode)
# ---------------------------------------------------------------------- #
def _measure_subprocess(workers: int, workload: str) -> dict:
    """Run one workload in a fresh interpreter and collect wall/RSS/makespan.

    A child process is the only way to attribute peak RSS to one run:
    ``ru_maxrss`` is a process-wide high-water mark, so in-process
    back-to-back runs would charge the first run's peak to both.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", str(workers), workload],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _child(workers: int, workload: str) -> None:
    from repro.obs import MetricsRegistry, RssSampler

    if workload == "figure3":
        tree = figure3_tree(scale=1.0, seed=7)
    else:
        tree = tier_tree(workers)
    registry = MetricsRegistry()
    gauge = registry.gauge("process_rss_mb", workload=workload)
    start = time.perf_counter()
    # Peak-over-time via the telemetry registry: a sampler thread reads
    # /proc/self/statm during the run, so the reported peak reflects this
    # run's working set, not whatever the interpreter touched before or
    # after.  ``ru_maxrss`` stays as the fallback when /proc is unreadable.
    with RssSampler(gauge) as sampler:
        result = run_engine(tree, workers)
    wall = time.perf_counter() - start
    peak_mb = sampler.peak_mb
    if not peak_mb:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        json.dumps(
            {
                "workload": workload,
                "workers": workers,
                "tree_nodes": len(tree),
                "wall_s": round(wall, 2),
                "peak_rss_mb": round(peak_mb, 1),
                "rss_samples": sampler.samples,
                "makespan": result.makespan,
                "terminated": result.all_terminated,
                "events_processed": result.engine_counters.get("events_processed", 0),
                "peak_heap_len": result.engine_counters.get("peak_heap_len", 0),
            }
        )
    )


def _row(m: dict) -> str:
    return (
        f"{m['workload']:<8} {m['workers']:>7,} {m['tree_nodes']:>7,}"
        f" {m['wall_s']:>9.2f}s {m['peak_rss_mb']:>9.1f}MB"
        f" {m['makespan']:>9.3f} {m['events_processed']:>12,}"
    )


def run_full_scale(include_ladder: bool = True) -> dict:
    """The full-scale tier + completion ladder; returns the metrics."""
    workers = tier_workers()
    tier = _measure_subprocess(workers, "tier")
    header = (
        f"{'workload':<8} {'workers':>7} {'nodes':>7} {'wall':>10} {'peak RSS':>11}"
        f" {'makespan':>9} {'events':>12}"
    )
    lines = [header, _row(tier)]
    ladder = []
    if include_ladder:
        for rung in LADDER_WORKERS:
            measurement = _measure_subprocess(rung, "figure3")
            ladder.append(measurement)
            lines.append(_row(measurement))
    print_experiment(
        f"ENGINE SCALE — {workers:,}-worker tier"
        + (f" + completion ladder to {LADDER_WORKERS[-1]:,} workers"
           if include_ladder else ""),
        "\n".join(lines),
    )
    return {"tier": tier, "ladder": ladder}


@pytest.mark.skipif(not _FULL_SCALE, reason="set REPRO_FULL_SCALE=1 (slow)")
def test_scale_tier_and_ladder():
    metrics = run_full_scale(include_ladder=True)
    assert metrics["tier"]["terminated"]
    assert len(metrics["ladder"]) == len(LADDER_WORKERS)
    assert all(m["terminated"] for m in metrics["ladder"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, metavar=("WORKERS", "WORKLOAD"))
    parser.add_argument("--no-ladder", "--no-10k", action="store_true",
                        help="skip the 5k/10k-worker completion ladder")
    args = parser.parse_args(argv)
    if args.child:
        workers, workload = args.child
        _child(int(workers), workload)
        return 0
    run_full_scale(include_ladder=not args.no_ladder)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
