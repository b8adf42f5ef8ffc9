"""Experiment builders: one function per paper table / figure.

Each builder runs the necessary simulations and returns plain rows (lists of
dictionaries) shaped like the paper's artefact, so the benchmark harness and
EXPERIMENTS.md can print them directly with
:func:`repro.analysis.tables.format_table`.

Every builder executes through the unified Scenario API
(:mod:`repro.scenario`): experiments are declarative
:class:`~repro.scenario.spec.Scenario` objects, the fault-tolerance
comparison is literally :func:`~repro.scenario.backends.compare_backends`,
and builders that need simulator-specific detail (the Figure 3 time
categories, the Figures 5/6 traces) read the backend-native
:class:`~repro.distributed.stats.RunResult` from ``ScenarioResult.raw``.

Workload scaling
----------------
The paper's Table 1 problem is ≈79,600 expanded nodes at 3.47 s/node (≈75
hours of uniprocessor work) simulated with up to 100 processors.  Replaying a
tree of that size through a pure-Python simulator for five processor counts
takes far longer than a benchmark suite should, so every builder takes a
``scale`` parameter (default < 1) that shrinks the *node count* while keeping
the per-node granularity; the experiment records both the requested and the
effective workload so EXPERIMENTS.md can state exactly what was run.  Setting
``scale=1.0`` (or exporting ``REPRO_FULL_SCALE=1`` for the benchmark harness)
reproduces the full-size configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bnb.basic_tree import BasicTree
from ..bnb.pool import SelectionRule
from ..bnb.random_tree import RandomTreeSpec, generate_random_tree
from ..distributed.config import AlgorithmConfig
from ..distributed.runner import worker_names
from ..distributed.stats import TIME_CATEGORIES, RunResult
from ..scenario import (
    CRITICAL,
    FailureSpec,
    Scenario,
    TelemetryConfig,
    WorkloadSpec,
    compare_backends,
    run_scenario,
)
from .timeline import ascii_gantt, worker_spans

__all__ = [
    "default_config",
    "figure3_tree",
    "table1_tree",
    "tiny_tree",
    "figure3_breakdown",
    "table1_rows",
    "figure4_series",
    "figure56_scenario",
    "granularity_sweep",
    "fault_tolerance_comparison",
    "reporting_ablation",
    "compression_ablation",
]


def default_config(**overrides) -> AlgorithmConfig:
    """The algorithm configuration used by all paper-reproduction experiments.

    Random test trees are replayed without elimination (as in the paper), so
    depth-first selection keeps the pools small; everything else is the
    library default, which matches the paper's "no optimisation efforts"
    description.
    """
    config = AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST)
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def _tree_scenario(
    tree: BasicTree, n_workers: int, config: AlgorithmConfig, seed: int, **overrides
) -> Scenario:
    """A scenario replaying a prebuilt tree (shared by every builder)."""
    return Scenario(
        name=tree.name,
        workload=WorkloadSpec(kind="tree", tree=tree),
        n_workers=n_workers,
        seed=seed,
        config=config,
        **overrides,
    )


def _raw_run(scenario: Scenario) -> RunResult:
    """Run on the simulated backend and return the native ``RunResult``."""
    return run_scenario(scenario, backend="simulated").raw


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def figure3_tree(*, scale: float = 1.0, seed: int = 7) -> BasicTree:
    """The Figure 3 workload: ≈3,500 expanded nodes, 0.01 s/node."""
    nodes = max(101, int(round(3501 * scale)))
    return generate_random_tree(
        RandomTreeSpec(
            nodes=nodes,
            mean_node_time=0.01,
            time_cv=0.6,
            balance=0.7,
            feasible_leaf_fraction=0.2,
            seed=seed,
            name=f"figure3-{nodes}n",
        )
    )


def table1_tree(*, scale: float = 0.15, seed: int = 11) -> BasicTree:
    """The Table 1 workload: ≈79,600 expanded nodes, 3.47 s/node.

    ``scale`` shrinks the node count (default ≈11,900 nodes) so the default
    benchmark run stays tractable in pure Python; the granularity is kept at
    the paper's 3.47 s so per-node behaviour (report sizes, recovery
    thresholds, communication-to-computation ratio) is unchanged.
    """
    nodes = max(1001, int(round(79_601 * scale)))
    return generate_random_tree(
        RandomTreeSpec(
            nodes=nodes,
            mean_node_time=3.47,
            time_cv=0.6,
            balance=0.7,
            feasible_leaf_fraction=0.15,
            seed=seed,
            name=f"table1-{nodes}n",
        )
    )


def tiny_tree(*, seed: int = 7, scale: float = 1.0) -> BasicTree:
    """The very small problem of Figures 5/6 (``scale`` shrinks/grows it)."""
    nodes = max(31, int(round(151 * scale))) | 1  # binary trees: odd counts
    return generate_random_tree(
        RandomTreeSpec(
            nodes=nodes,
            mean_node_time=0.05,
            time_cv=0.4,
            balance=0.8,
            feasible_leaf_fraction=0.3,
            seed=seed,
            name=f"tiny-{nodes}n",
        )
    )


# --------------------------------------------------------------------------- #
# Figure 3 — execution-time breakdown vs. number of processors
# --------------------------------------------------------------------------- #
def figure3_breakdown(
    *,
    processor_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    scale: float = 1.0,
    seed: int = 7,
    config: Optional[AlgorithmConfig] = None,
) -> List[Dict[str, object]]:
    """Reproduce Figure 3: per-category execution time for 1–8 processors.

    Returns one row per processor count with the makespan and the per-category
    times (in seconds, averaged per processor, like the stacked bars of the
    figure) plus the derived overhead percentage the paper quotes in the text
    (36% at 8 processors for this problem).
    """
    tree = figure3_tree(scale=scale, seed=seed)
    cfg = config if config is not None else default_config()
    uniprocessor = tree.total_node_time()
    rows: List[Dict[str, object]] = []
    for n in processor_counts:
        result = _raw_run(
            _tree_scenario(tree, n, cfg, seed + n, uniprocessor_time=uniprocessor)
        )
        row: Dict[str, object] = {
            "processors": n,
            "makespan_s": round(result.makespan, 3),
        }
        for category in TIME_CATEGORIES:
            total = sum(stats.time[category] for stats in result.workers.values())
            row[f"{category}_s_per_proc"] = round(total / n, 3)
        row["overhead_pct"] = round(result.overhead_percent(), 2)
        row["speedup"] = round(result.speedup() or 0.0, 2)
        row["solved_correctly"] = result.solved_correctly
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 1 — large problem, 10..100 processors
# --------------------------------------------------------------------------- #
def table1_rows(
    *,
    processor_counts: Sequence[int] = (10, 30, 50, 70, 100),
    scale: float = 0.15,
    seed: int = 11,
    config: Optional[AlgorithmConfig] = None,
) -> List[Dict[str, object]]:
    """Reproduce Table 1: execution time, %B&B, %contraction, storage, traffic.

    The columns match the paper's table; ``execution_time_h`` additionally
    reports the makespan in hours to compare against the paper's 7.93…1.04 h
    series (with ``scale=1.0``).
    """
    tree = table1_tree(scale=scale, seed=seed)
    cfg = config if config is not None else default_config()
    uniprocessor = tree.total_node_time()
    rows: List[Dict[str, object]] = []
    for n in processor_counts:
        result = _raw_run(
            _tree_scenario(tree, n, cfg, seed + n, uniprocessor_time=uniprocessor)
        )
        rows.append(
            {
                "processors": n,
                "execution_time_h": round(result.execution_time_hours(), 4),
                "bb_time_pct": round(result.bb_time_percent(), 2),
                "contraction_time_pct": round(result.contraction_time_percent(), 3),
                "storage_total_mb": round(result.storage_total_mb(), 4),
                "storage_redundant_mb": round(result.storage_redundant_mb(), 4),
                "comm_mb_per_hour_per_proc": round(
                    result.communication_mb_per_hour_per_processor(), 4
                ),
                "speedup": round(result.speedup() or 0.0, 2),
                "redundant_work_fraction": round(result.redundant_work_fraction(), 4),
                "solved_correctly": result.solved_correctly,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 4 — speedup and communication curves (derived from Table 1 runs)
# --------------------------------------------------------------------------- #
def figure4_series(table1: Sequence[Dict[str, object]]) -> Dict[str, List[Tuple[int, float]]]:
    """Extract the two Figure 4 curves from Table 1 rows.

    Returns ``{"execution_time_h": [(procs, hours)...],
    "comm_mb_per_hour_per_proc": [(procs, MB)…]}`` — the same two series the
    paper plots (execution time vs. processors, per-processor communication
    rate vs. processors).
    """
    execution = [(int(r["processors"]), float(r["execution_time_h"])) for r in table1]
    communication = [
        (int(r["processors"]), float(r["comm_mb_per_hour_per_proc"])) for r in table1
    ]
    return {
        "execution_time_h": execution,
        "comm_mb_per_hour_per_proc": communication,
    }


# --------------------------------------------------------------------------- #
# Figures 5 & 6 — small problem, with and without crashing 2 of 3 processors
# --------------------------------------------------------------------------- #
def figure56_scenario(
    *,
    n_workers: int = 3,
    crash_fraction: float = 0.85,
    seed: int = 7,
    config: Optional[AlgorithmConfig] = None,
) -> Dict[str, object]:
    """Reproduce the Figures 5/6 demonstration.

    Runs the very small problem once without failures (Figure 5) and once with
    all processors but one crashing at ``crash_fraction`` of the failure-free
    makespan (Figure 6), and returns both results plus ASCII Gantt charts of
    the two timelines and the correctness verdicts.  Both runs are traced:
    ``worker_spans(result.telemetry.tracer.iter_records())`` is a run's
    timeline.
    """
    tree = tiny_tree(seed=seed)
    cfg = config if config is not None else default_config()
    base = _tree_scenario(
        tree, n_workers, cfg, seed, telemetry=TelemetryConfig(trace=True, metrics=False)
    )
    baseline = _raw_run(base)
    crash_time = crash_fraction * baseline.makespan
    victims = worker_names(n_workers)[1:]
    # The fraction is resolved against the baseline just measured, so the
    # failure run does not trigger a redundant reference simulation.
    with_failures = _raw_run(
        base.with_overrides(
            failures=(FailureSpec(victims=tuple(victims), at_time=crash_time),)
        )
    )
    return {
        "tree": tree.name,
        "optimum": tree.optimal_value(),
        "no_failure": baseline,
        "with_failures": with_failures,
        "crash_time": crash_time,
        "victims": victims,
        "no_failure_gantt": _gantt(baseline),
        "with_failures_gantt": _gantt(with_failures),
    }


def _gantt(result: RunResult) -> str:
    return ascii_gantt(worker_spans(result.telemetry.tracer.iter_records()))


# --------------------------------------------------------------------------- #
# Granularity sweep (Section 6.3.1 discussion)
# --------------------------------------------------------------------------- #
def granularity_sweep(
    *,
    factors: Sequence[float] = (0.1, 0.5, 1.0, 5.0, 10.0),
    n_workers: int = 8,
    scale: float = 0.5,
    seed: int = 7,
    config: Optional[AlgorithmConfig] = None,
) -> List[Dict[str, object]]:
    """Vary problem granularity by scaling all node times by a constant factor.

    Reproduces the qualitative observations of Section 6.3.1: load balance
    improves with coarser granularity, while communication (sent at
    time-driven intervals) grows relative to useful work when nodes are tiny.
    """
    tree = figure3_tree(scale=scale, seed=seed)
    cfg = config if config is not None else default_config()
    rows: List[Dict[str, object]] = []
    for factor in factors:
        result = _raw_run(
            _tree_scenario(
                tree,
                n_workers,
                cfg,
                seed,
                granularity=factor,
                uniprocessor_time=tree.total_node_time() * factor,
            )
        )
        rows.append(
            {
                "granularity": factor,
                "mean_node_time_s": round(tree.mean_node_time() * factor, 4),
                "makespan_s": round(result.makespan, 3),
                "speedup": round(result.speedup() or 0.0, 2),
                "bb_time_pct": round(result.bb_time_percent(), 2),
                "idle_time_pct": round(result.idle_time_percent(), 2),
                "messages_sent": result.network.messages_sent if result.network else 0,
                "comm_mb_per_hour_per_proc": round(
                    result.communication_mb_per_hour_per_processor(), 4
                ),
                "redundant_work_fraction": round(result.redundant_work_fraction(), 4),
                "solved_correctly": result.solved_correctly,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Fault-tolerance comparison: ours vs DIB-style vs centralised
# --------------------------------------------------------------------------- #
def fault_tolerance_comparison(
    *,
    n_workers: int = 6,
    seed: int = 13,
    scale: float = 1.0,
    config: Optional[AlgorithmConfig] = None,
) -> List[Dict[str, object]]:
    """Compare failure behaviour of the three designs on the same workload.

    Scenarios: no failures; half the processors crash; all but one crash; and
    the design-specific "critical node" crash (the DIB root machine / the
    central manager, resolved by the :data:`~repro.scenario.spec.CRITICAL`
    victim placeholder).  The paper's claim is that only its mechanism
    survives all of them.  Each row is one
    :func:`~repro.scenario.backends.compare_backends` call over the
    ``simulated``, ``dib`` and ``central`` backends; fractional crash times
    resolve against each design's own failure-free makespan, so every design
    faces the same relative failure pressure.
    """
    tree = tiny_tree(seed=seed) if scale <= 0.1 else figure3_tree(scale=0.1 * scale, seed=seed)
    cfg = config if config is not None else default_config()
    base = _tree_scenario(tree, n_workers, cfg, seed)

    cases: List[Tuple[str, Tuple[object, ...]]] = [
        ("no failures", ()),
        ("half crash", tuple(range(1, 1 + n_workers // 2))),
        ("all but one crash", tuple(range(1, n_workers))),
        ("critical node crash", (CRITICAL,)),
    ]

    rows: List[Dict[str, object]] = []
    for label, victims in cases:
        scenario = base.with_overrides(
            name=label,
            failures=(FailureSpec(victims=victims, at_fraction=0.5),) if victims else (),
        )
        results = compare_backends(scenario, ("simulated", "dib", "central"))
        ours, dib, central = results["simulated"], results["dib"], results["central"]
        rows.append(
            {
                "scenario": label,
                "crashed": len(victims),
                "ours_terminated": ours.terminated,
                "ours_correct": bool(ours.solved_correctly),
                "dib_terminated": dib.terminated,
                "dib_correct": bool(dib.terminated and dib.solved_correctly),
                "central_terminated": central.terminated,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------------- #
def reporting_ablation(
    *,
    thresholds: Sequence[int] = (1, 5, 10, 25, 50),
    fanouts: Sequence[int] = (1, 2, 4),
    n_workers: int = 8,
    scale: float = 0.5,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Sweep the report threshold ``c`` and fanout ``m``.

    Reproduces the tuning discussion of Section 6.3.1: rarer reports reduce
    communication and contraction cost but delay termination detection.
    """
    tree = figure3_tree(scale=scale, seed=seed)
    rows: List[Dict[str, object]] = []
    for threshold in thresholds:
        for fanout in fanouts:
            cfg = default_config(report_threshold=threshold, report_fanout=fanout)
            result = _raw_run(
                _tree_scenario(
                    tree, n_workers, cfg, seed, uniprocessor_time=tree.total_node_time()
                )
            )
            rows.append(
                {
                    "report_threshold_c": threshold,
                    "report_fanout_m": fanout,
                    "makespan_s": round(result.makespan, 3),
                    "messages_sent": result.network.messages_sent if result.network else 0,
                    "comm_mb_per_hour_per_proc": round(
                        result.communication_mb_per_hour_per_processor(), 4
                    ),
                    "contraction_time_pct": round(result.contraction_time_percent(), 3),
                    "redundant_work_fraction": round(result.redundant_work_fraction(), 4),
                    "solved_correctly": result.solved_correctly,
                }
            )
    return rows


def compression_ablation(
    *,
    n_workers: int = 8,
    scale: float = 0.5,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Work-report compression on/off (Section 5.3.2's compression claim)."""
    tree = figure3_tree(scale=scale, seed=seed)
    rows: List[Dict[str, object]] = []
    for compress in (True, False):
        cfg = default_config(compress_reports=compress)
        result = _raw_run(
            _tree_scenario(
                tree, n_workers, cfg, seed, uniprocessor_time=tree.total_node_time()
            )
        )
        rows.append(
            {
                "compress_reports": compress,
                "makespan_s": round(result.makespan, 3),
                "bytes_sent_mb": round(result.total_bytes_sent / 1e6, 4),
                "comm_mb_per_hour_per_proc": round(
                    result.communication_mb_per_hour_per_processor(), 4
                ),
                "storage_total_mb": round(result.storage_total_mb(), 4),
                "solved_correctly": result.solved_correctly,
            }
        )
    return rows
