"""The four ledger workloads: what runs, at which size, from which seeds.

A workload is a closed system with a fixed number of repetitions ("reps").
The workload tree is built once in set-up from tree seed 7 and handed to the
scenario as ``WorkloadSpec(kind="tree")``; rep *r* of base seed *s* runs with
run seed ``s * 1000 + r``, so two base seeds never share a rep and the
simulated metrics are exactly repeatable for a given ``--seed``.

``rep_cost_s`` is what one rep costs on the 2-core reference box; it turns
``--seconds`` into a rep count (``reps_for``) without letting the host's
speed of the day change the sample, which would make simulated counts
non-repeatable.  Sizes and costs were measured while writing the ledger and
are recorded in README.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.bnb.sequential import SequentialSolver
from repro.bnb.tree_problem import TreeReplayProblem
from repro.distributed.runner import NetworkConfig, sequential_reference_time
from repro.scenario import ChurnSpec, FailureSpec, Scenario, WorkloadSpec, run_scenario

__all__ = [
    "Size",
    "Workload",
    "WORKLOADS",
    "TREE_SEED",
    "NODE_SLEEP",
    "reps_for",
    "rep_seed",
    "tree_digest",
    "Setup",
    "set_up",
    "count_failures",
    "Rep",
    "run_rep",
]

#: Seed of every workload tree (independent of ``--seed``).
TREE_SEED = 7

#: Fewest reps a full-size run takes, however short ``--seconds`` is.
MIN_REPS = 3

#: Reps of a ``--quick`` run.
QUICK_REPS = 2


@dataclass(frozen=True)
class Size:
    """The size-dependent knobs of a workload."""

    tree_kind: str
    tree_scale: float
    n_workers: int


@dataclass(frozen=True)
class Workload:
    """One named workload (see README.md for why each exists)."""

    name: str
    backend: str
    full: Size
    quick: Size
    #: Seconds one full-size rep costs on the reference box.
    rep_cost_s: float
    #: Share of ``--seconds`` this workload measures for.  The rep budget
    #: follows the noise: the fault workload's simulated metrics vary most
    #: from seed to seed and get the most reps, Table 1 needs five reps for a
    #: usable median, Figure 3 is steady on fewer (spreads in README.md).
    share: float = 1.0
    #: Scenario fields beyond tree, worker count and seed.
    overrides: Mapping[str, object] = field(default_factory=dict)

    @property
    def permanent_crashes(self) -> Tuple[int, ...]:
        """Workers the failure schedule crashes for good: never expected to
        finish, while everyone else is."""
        return tuple(v for spec in self.overrides.get("failures", ()) for v in spec.victims)

    def size(self, quick: bool) -> Size:
        return self.quick if quick else self.full

    def tree_spec(self, quick: bool) -> WorkloadSpec:
        """The declarative spec set-up builds the tree from."""
        size = self.size(quick)
        return WorkloadSpec(kind=size.tree_kind, scale=size.tree_scale, seed=TREE_SEED)

    def scenario(self, tree, *, quick: bool, run_seed: int, n_workers: int = 0) -> Scenario:
        """The scenario of one rep (``n_workers`` overrides the size's)."""
        return Scenario(
            name=self.name,
            workload=WorkloadSpec(kind="tree", tree=tree),
            n_workers=n_workers or self.size(quick).n_workers,
            seed=run_seed,
            **self.overrides,
        )


#: Per-node sleep of the realexec workers (seconds): 4 sleeping processes
#: fit the 2 cores of the reference box.
NODE_SLEEP = 0.01

#: 5 % loss, three workers crashed for good at simulated t = 2.3 s (≈ 35 % of
#: the failure-free makespan; an absolute time needs no hidden reference
#: run) and restart-mode churn on the other four non-root workers.
_FAULTS = dict(
    network=NetworkConfig(loss_probability=0.05),
    failures=(FailureSpec(victims=(1, 2, 3), at_time=2.3),),
    churn=ChurnSpec(
        mean_uptime=2.0, mean_downtime=0.5, start_after=0.5, horizon=8.0, spare=(0, 1, 2, 3)
    ),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sim-fig3-8w",
            backend="simulated",
            full=Size("figure3", 1.0, 8),
            quick=Size("figure3", 1.0, 8),
            rep_cost_s=0.33,
            share=0.6,
        ),
        Workload(
            name="sim-table1-100w",
            backend="simulated",
            # 0.0125 is table1_tree's floor: 1,001 nodes x 3.35 s.
            full=Size("table1", 0.0125, 100),
            quick=Size("table1", 0.0125, 25),
            rep_cost_s=7.4,
            share=1.85,
        ),
        Workload(
            name="sim-faults-8w",
            backend="simulated",
            full=Size("figure3", 1.0, 8),
            quick=Size("figure3", 1.0, 8),
            rep_cost_s=0.47,
            share=1.5,
            overrides=_FAULTS,
        ),
        Workload(
            name="real-tcp-4w",
            backend="realexec",
            full=Size("figure3", 0.1, 4),
            quick=Size("figure3", 0.05, 4),
            rep_cost_s=3.9,
            overrides=dict(transport="tcp", node_sleep=NODE_SLEEP, max_seconds=60.0),
        ),
    )
}


def reps_for(workload: Workload, seconds: float, *, quick: bool = False) -> int:
    """Rep count that fills the workload's share of ``seconds`` on the reference box."""
    if quick:
        return QUICK_REPS
    return max(MIN_REPS, round(seconds * workload.share / workload.rep_cost_s))


def rep_seed(base_seed: int, rep: int) -> int:
    """Run seed of rep ``rep`` (disjoint ranges for distinct base seeds)."""
    if not 0 <= rep < 1000:
        raise ValueError(f"rep {rep} outside [0, 1000)")
    return base_seed * 1000 + rep


def tree_digest(tree) -> str:
    """Short content digest of a workload tree (set-up prints it)."""
    blob = json.dumps(tree.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Setup:
    """What set-up hands to the reps."""

    tree: object
    nodes: int
    optimum: float
    #: Sequential time the speedup is measured against: simulated seconds
    #: (``sim-*``) or the wall seconds of the 1-worker run (``real-*``).
    sequential_s: float
    build_tree_s: float
    seq_nodes_per_s: float


def set_up(workload: Workload, *, quick: bool) -> Setup:
    """Build the tree and the sequential baseline (all of it is ``setup_s``)."""
    start = time.perf_counter()
    tree = workload.tree_spec(quick).build()
    build_tree_s = time.perf_counter() - start
    optimum = tree.optimal_value()

    # Host-timed sequential solve: the bnb layer alone, and a check that the
    # reference optimum is the one plain branch-and-bound finds.
    start = time.perf_counter()
    solved = SequentialSolver(TreeReplayProblem(tree, prune=False)).solve()
    seq_wall = time.perf_counter() - start
    if solved.nodes_expanded != len(tree) or not _is_optimum(solved.best_value, optimum):
        raise RuntimeError(
            f"sequential solve disagrees with the tree: {solved.nodes_expanded} nodes, "
            f"best {solved.best_value}, expected {len(tree)} nodes, optimum {optimum}"
        )

    if workload.backend == "realexec":
        baseline = run_scenario(
            workload.scenario(tree, quick=quick, run_seed=0, n_workers=1), workload.backend
        )
        if count_failures(workload, baseline, optimum):
            raise RuntimeError("the 1-worker baseline run did not solve the tree")
        sequential_s = baseline.makespan
    else:
        sequential_s = sequential_reference_time(tree, prune=False)
    return Setup(
        tree=tree,
        nodes=len(tree),
        optimum=optimum,
        sequential_s=sequential_s,
        build_tree_s=build_tree_s,
        seq_nodes_per_s=solved.nodes_expanded / seq_wall,
    )


def _is_optimum(value: Optional[float], optimum: float) -> bool:
    return value is not None and abs(value - optimum) <= 1e-9 * max(1.0, abs(optimum))


def count_failures(workload: Workload, result, optimum: float) -> int:
    """Workers expected to finish that did not finish correctly.

    A worker fails when it has no collected outcome, did not detect
    termination, or holds a best value other than the tree's optimum; a run
    that hit its wall-clock cap fails all of them.
    """
    expected = [i for i in range(result.n_workers) if i not in workload.permanent_crashes]
    real = result.backend == "realexec"
    if real and result.makespan >= workload.overrides["max_seconds"]:
        return len(expected)
    prefix = "rworker" if real else "worker"
    failed = 0
    for index in expected:
        summary = result.workers.get(f"{prefix}-{index:02d}")
        if (
            summary is None
            or summary.crashed
            or not summary.terminated
            or not _is_optimum(summary.best_value, optimum)
        ):
            failed += 1
    return failed


@dataclass
class Rep:
    """One repetition: its result, its wall time and its failure count."""

    result: object
    run_wall_s: float
    attempted: int
    failed: int


def run_rep(workload: Workload, setup: Setup, *, quick: bool, run_seed: int, **overrides) -> Rep:
    """Run one rep and account for its workers (never raises on a bad run)."""
    scenario = workload.scenario(setup.tree, quick=quick, run_seed=run_seed)
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    attempted = scenario.n_workers - len(workload.permanent_crashes)
    start = time.perf_counter()
    try:
        result = run_scenario(scenario, workload.backend)
    except Exception as error:  # a rep that raises fails all its workers
        print(f"rep with run seed {run_seed} raised: {error!r}", file=sys.stderr)
        return Rep(None, time.perf_counter() - start, attempted, attempted)
    wall = time.perf_counter() - start
    failed = count_failures(workload, result, setup.optimum)
    return Rep(result, wall, attempted, failed)
