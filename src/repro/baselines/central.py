"""Centralised manager/worker parallel B&B — the related-work baseline.

Section 3 of the paper: "many investigations of parallel B&B for
distributed-memory systems have adopted a centralized approach in which a
single manager maintains the tree and hands out tasks to workers.  While
clearly not scalable, this approach simplifies the management of information
and multiple processes … the central manager remains an obstacle to both
scalability and fault tolerance."

This module holds that design's messages and entities and how it starts;
the shared harness (:mod:`repro.baselines.harness`) runs it on the same
simulation substrate, so the fault-tolerance benchmarks can compare
behaviours quantitatively:

* the **manager** keeps the global pool, the incumbent and the list of
  outstanding assignments;
* **workers** request a subproblem, expand it, send back the children (or the
  completion) and ask for more;
* crash of a *worker* loses only its in-flight subproblem, which the manager
  re-issues after a timeout (classic centralised checkpointing; each re-issue
  counts as one of the manager's recoveries);
* crash of the *manager* is fatal — the computation never terminates — which
  is exactly the single-point-of-failure the paper's decentralised design
  removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..bnb.pool import SelectionRule, SubproblemPool
from ..bnb.problem import BranchAndBoundProblem, Subproblem, worse_than
from ..bnb.sequential import NodeExpander
from ..core.arena import TrieArena
from ..core.encoding import ROOT, PathCode
from ..simulation.entity import QueuedMessage
from ..simulation.failures import CrashEvent
from ..simulation.rng import RngRegistry
from .harness import BaselineEntity, BaselineRunResult, Cast, run_baseline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..distributed.runner import NetworkConfig

__all__ = [
    "CentralTaskRequest",
    "CentralTaskAssignment",
    "CentralNoWork",
    "CentralResult",
    "CentralManagerEntity",
    "CentralWorkerEntity",
    "central_worker_names",
    "run_central_simulation",
]


def central_worker_names(n: int) -> List[str]:
    """Canonical worker names of the centralised backend (``cworker-NN``)."""
    return [f"cworker-{i:02d}" for i in range(n)]


# --------------------------------------------------------------------------- #
# Messages
# --------------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class CentralTaskRequest:
    """Worker asking the manager for a subproblem."""

    kind: ClassVar[str] = "task_request"
    worker: str

    def wire_size(self) -> int:
        return 32


@dataclass(frozen=True, slots=True)
class CentralTaskAssignment:
    """Manager handing a subproblem (by code) to a worker."""

    kind: ClassVar[str] = "task_assignment"
    code: PathCode
    incumbent: Optional[float]

    def wire_size(self) -> int:
        return 32 + self.code.wire_size() + 10


@dataclass(frozen=True, slots=True)
class CentralNoWork:
    """Manager telling a worker there is currently nothing to hand out."""

    kind: ClassVar[str] = "no_work"
    terminated: bool

    def wire_size(self) -> int:
        return 32


@dataclass(frozen=True, slots=True)
class CentralResult:
    """Worker returning the outcome of one expansion to the manager."""

    kind: ClassVar[str] = "task_result"
    worker: str
    code: PathCode
    child_codes: Tuple[PathCode, ...]
    incumbent: Optional[float]

    def wire_size(self) -> int:
        return (
            32
            + self.code.wire_size()
            + sum(c.wire_size() for c in self.child_codes)
            + (10 if self.incumbent is not None else 0)
        )


# --------------------------------------------------------------------------- #
# Entities
# --------------------------------------------------------------------------- #
class CentralManagerEntity(BaselineEntity):
    """The central manager: global pool, incumbent, assignment tracking."""

    def __init__(
        self,
        name: str,
        problem: BranchAndBoundProblem,
        worker_names: Sequence[str],
        *,
        reassign_timeout: float = 2.0,
    ) -> None:
        super().__init__(name, problem)
        self.worker_names = list(worker_names)
        self.reassign_timeout = reassign_timeout
        self.pool: SubproblemPool = SubproblemPool(
            SelectionRule.BEST_FIRST, minimize=problem.minimize
        )
        #: code -> (worker, assigned_at) for in-flight subproblems.
        self.outstanding: Dict[PathCode, Tuple[str, float]] = {}

    def on_start(self) -> None:
        self.requeue(ROOT)
        self.set_timer(self.reassign_timeout, "reassign-check")

    def on_wakeup(self, reason: str) -> None:
        if not self.alive or self.terminated:
            return
        if reason == "reassign-check":
            self._reassign_stale()
            self.set_timer(self.reassign_timeout, "reassign-check")

    def _reassign_stale(self) -> None:
        """Re-queue subproblems whose worker has not answered in time.

        This is the centralised design's recovery story: the manager is the
        single reliable place that knows which work is outstanding.
        """
        now = self.engine.now if self.engine else 0.0
        for code, (worker, assigned_at) in list(self.outstanding.items()):
            if now - assigned_at >= self.reassign_timeout:
                del self.outstanding[code]
                self.recoveries += 1
                self.requeue(code)

    def on_message(self, message: QueuedMessage) -> None:
        payload = message.payload
        now = self.engine.now if self.engine else 0.0
        if isinstance(payload, CentralTaskRequest):
            self._hand_out(payload.worker, now)
        elif isinstance(payload, CentralResult):
            self._absorb_result(payload, now)

    def _hand_out(self, worker: str, now: float) -> None:
        if self.terminated:
            self.send(worker, CentralNoWork(terminated=True))
            return
        while self.pool:
            sub = self.pool.pop()
            bound = self.problem.bound(sub.state)
            if worse_than(bound, self.incumbent, minimize=self.problem.minimize):
                continue  # pruned at the manager
            self.outstanding[sub.code] = (worker, now)
            self.send(worker, CentralTaskAssignment(code=sub.code, incumbent=self.incumbent))
            return
        self.send(worker, CentralNoWork(terminated=self._check_termination(now)))

    def _absorb_result(self, result: CentralResult, now: float) -> None:
        self.outstanding.pop(result.code, None)
        self.adopt(result.incumbent)
        for code in result.child_codes:
            self.requeue(code)
        self._check_termination(now)

    def _check_termination(self, now: float) -> bool:
        if not self.terminated and not self.pool and not self.outstanding:
            self.terminated = True
            self.terminated_at = now
            for worker in self.worker_names:
                self.send(worker, CentralNoWork(terminated=True))
        return self.terminated


class CentralWorkerEntity(BaselineEntity):
    """A worker in the centralised design: fetch, expand, report, repeat."""

    def __init__(
        self,
        name: str,
        problem: BranchAndBoundProblem,
        manager: str,
        *,
        retry_interval: float = 1.0,
        nowork_retry_interval: float = 0.2,
    ) -> None:
        super().__init__(name, problem)
        self.manager = manager
        self.retry_interval = retry_interval
        self.nowork_retry_interval = nowork_retry_interval
        self.expander = NodeExpander(problem)
        self._waiting = False
        self._busy = False
        self._pending: Optional[Tuple[PathCode, Subproblem]] = None
        #: Assignments that arrived while an expansion was in flight (possible
        #: when a slow reply races a retried request); processed next.
        self._backlog: List[PathCode] = []
        self._request_seq = 0

    def on_start(self) -> None:
        self._request_work()

    def _request_work(self) -> None:
        if not self.alive or self.terminated or self._busy:
            return
        self._waiting = True
        self._request_seq += 1
        self.send(self.manager, CentralTaskRequest(worker=self.name))
        # A single retry watchdog per request: stale watchdogs (identified by
        # their sequence number) are ignored, which keeps the retry traffic
        # linear even when the manager is slow or dead.
        self.set_timer(self.retry_interval, f"retry:{self._request_seq}")

    def on_wakeup(self, reason: str) -> None:
        if not self.alive or self.terminated:
            return
        if reason.startswith("retry:"):
            seq = int(reason.split(":", 1)[1])
            if self._waiting and not self._busy and seq == self._request_seq:
                # The manager did not answer (it may have crashed).  Keep
                # retrying: in the centralised design there is nothing else a
                # worker can do.
                self._request_work()
        elif reason == "retry-nowork":
            if not self._waiting and not self._busy:
                self._request_work()
        elif reason == "work-done":
            self._finish_expansion()

    def on_message(self, message: QueuedMessage) -> None:
        payload = message.payload
        if isinstance(payload, CentralTaskAssignment):
            self._waiting = False
            self.adopt(payload.incumbent)
            if self._busy:
                self._backlog.append(payload.code)
            else:
                self._begin_expansion(payload.code)
        elif isinstance(payload, CentralNoWork):
            self._waiting = False
            if payload.terminated:
                self.terminated = True
            elif not self._busy:
                self.set_timer(self.nowork_retry_interval, "retry-nowork")

    # ------------------------------------------------------------------ #
    # Expansion (spread over simulated time via a timer)
    # ------------------------------------------------------------------ #
    def _begin_expansion(self, code: PathCode) -> None:
        sub = self.problem.rebuild_subproblem(code)
        if sub is None:
            self.send(self.manager, CentralResult(self.name, code, (), self.incumbent))
            self._continue()
            return
        self._busy = True
        self._pending = (code, sub)
        cost = self.problem.node_cost(sub.state)
        self.set_timer(cost, "work-done")

    def _finish_expansion(self) -> None:
        if self._pending is None:
            return
        code, sub = self._pending
        self._pending = None
        self._busy = False
        outcome = self.expander.expand(sub, self.incumbent)
        self.record_expansion(code)
        if outcome.incumbent_value is not None:
            self.incumbent = outcome.incumbent_value
        child_codes = tuple(child.code for child, _ in outcome.children)
        self.send(self.manager, CentralResult(self.name, code, child_codes, self.incumbent))
        self._continue()

    def _continue(self) -> None:
        """Work through the backlog before asking the manager for more."""
        if self._backlog:
            self._begin_expansion(self._backlog.pop(0))
        else:
            self._request_work()


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def run_central_simulation(
    problem: BranchAndBoundProblem,
    n_workers: int,
    *,
    failures: Sequence[CrashEvent] = (),
    seed: int = 0,
    network: Optional["NetworkConfig"] = None,
    max_sim_time: float = 10_000.0,
    reassign_timeout: float = 2.0,
) -> BaselineRunResult:
    """Run the centralised manager/worker baseline and return its result.

    ``failures`` may name workers or the manager (``"manager"``); crashing the
    manager demonstrates the single point of failure — the run then stops at
    ``max_sim_time`` without terminating.  The other parameters are those of
    :func:`~repro.baselines.harness.run_baseline`.
    """

    def cast(names: List[str], rng: RngRegistry, arena: TrieArena) -> Cast:
        manager = CentralManagerEntity(
            "manager", problem, names, reassign_timeout=reassign_timeout
        )
        return [CentralWorkerEntity(name, problem, "manager") for name in names], manager

    return run_baseline(
        problem,
        n_workers,
        central_worker_names,
        cast,
        failures=failures,
        seed=seed,
        network=network,
        max_sim_time=max_sim_time,
    )
