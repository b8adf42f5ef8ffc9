"""DIB-style decentralised baseline (Finkel & Manber, 1987).

DIB — "Distributed Implementation of Backtracking" — is the only fully
decentralised, fault-tolerant tree-search algorithm the paper compares against
(Sections 3 and 5.5).  Its recovery mechanism is *responsibility tracking*:

* every machine remembers the problems **it is responsible for** (the ones it
  received), the machines it sent subproblems to and the machine each problem
  came from;
* the completion of a problem is reported to the machine it came from;
* a machine that suspects the work it handed out will never complete (the
  donee failed, or the report was lost) simply **redoes that work** itself.

The crucial structural difference from the paper's mechanism is that the
responsibility graph is a tree rooted at the machine that holds the original
problem: if that machine fails, nobody else can decide that the computation
has finished, so DIB "imposes the need for a reliable or duplicated node for
the root of this hierarchy", and the failure of any node also invalidates the
completion reports of the problems it was responsible for.  The
fault-tolerance benchmarks demonstrate exactly this asymmetry: our algorithm
survives the loss of all but one member, the DIB-style baseline does not
survive the loss of its root machine.

This module holds the design's messages and its one entity, and seeds the
original problem on ``dworker-00``; each redone problem counts as one of a
machine's recoveries.  The shared harness (:mod:`repro.baselines.harness`)
runs it on the same simulation substrate and the same
:class:`~repro.bnb.problem.BranchAndBoundProblem` interface as the main
algorithm, so the comparison isolates the recovery mechanism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..bnb.pool import SelectionRule, SubproblemPool
from ..bnb.problem import BranchAndBoundProblem
from ..bnb.sequential import NodeExpander
from ..core.arena import TrieArena
from ..core.codeset import CodeSet
from ..core.encoding import ROOT, PathCode
from ..simulation.entity import QueuedMessage
from ..simulation.failures import CrashEvent
from ..simulation.rng import RngRegistry
from .harness import BaselineEntity, BaselineRunResult, Cast, run_baseline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..distributed.runner import NetworkConfig

__all__ = [
    "DibWorkRequest",
    "DibWorkGrant",
    "DibWorkDenied",
    "DibCompletionReport",
    "DibTerminationAnnounce",
    "DibWorkerEntity",
    "dib_worker_names",
    "run_dib_simulation",
]


def dib_worker_names(n: int) -> List[str]:
    """Canonical worker names of the DIB backend (``dworker-NN``)."""
    return [f"dworker-{i:02d}" for i in range(n)]


# --------------------------------------------------------------------------- #
# Messages
# --------------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class DibWorkRequest:
    """A starving DIB worker asking a random peer for work."""

    kind: ClassVar[str] = "work_request"
    requester: str

    def wire_size(self) -> int:
        return 32


@dataclass(frozen=True, slots=True)
class DibWorkGrant:
    """Donated subproblems; the donor stays responsible for them."""

    kind: ClassVar[str] = "work_grant"
    donor: str
    codes: Tuple[PathCode, ...]
    incumbent: Optional[float]

    def wire_size(self) -> int:
        return 32 + sum(c.wire_size() for c in self.codes) + 10


@dataclass(frozen=True, slots=True)
class DibWorkDenied:
    """Negative answer to a work request."""

    kind: ClassVar[str] = "work_denied"
    donor: str
    incumbent: Optional[float]

    def wire_size(self) -> int:
        return 32


@dataclass(frozen=True, slots=True)
class DibCompletionReport:
    """Completion of a received problem, reported to the machine it came from."""

    kind: ClassVar[str] = "completion_report"
    worker: str
    code: PathCode
    incumbent: Optional[float]

    def wire_size(self) -> int:
        return 32 + self.code.wire_size() + 10


@dataclass(frozen=True, slots=True)
class DibTerminationAnnounce:
    """Broadcast by the root machine when the original problem completes."""

    kind: ClassVar[str] = "termination_announce"
    best_value: Optional[float]

    def wire_size(self) -> int:
        return 42


@dataclass(frozen=True, slots=True)
class _Responsibility:
    """A problem this worker handed out and is still responsible for."""

    code: PathCode
    donee: str
    sent_at: float


# --------------------------------------------------------------------------- #
# Worker
# --------------------------------------------------------------------------- #
class DibWorkerEntity(BaselineEntity):
    """One machine of the DIB-style baseline."""

    def __init__(
        self,
        name: str,
        problem: BranchAndBoundProblem,
        members: Sequence[str],
        *,
        rng: Optional[random.Random] = None,
        redo_timeout: float = 5.0,
        poll_interval: float = 0.1,
        donation_max: int = 4,
        keep_at_least: int = 2,
        selection_rule: SelectionRule = SelectionRule.DEPTH_FIRST,
        arena: Optional[TrieArena] = None,
    ) -> None:
        super().__init__(name, problem)
        self.members = list(members)
        self.peers = [m for m in members if m != name]
        self.rng = rng if rng is not None else random.Random(0)
        self.redo_timeout = redo_timeout
        self.poll_interval = poll_interval
        self.donation_max = donation_max
        self.keep_at_least = keep_at_least

        self.expander = NodeExpander(problem)
        self.pool: SubproblemPool = SubproblemPool(selection_rule, minimize=problem.minimize)
        #: Everything this worker knows to be completed (its own work plus
        #: completion reports from machines it donated to).
        self.done = CodeSet(arena=arena)
        #: Problems received from other machines (code -> donor), for which a
        #: completion report is owed.
        self.received_from: Dict[PathCode, str] = {}
        #: Problems handed out to other machines, still unconfirmed.
        self.handed_out: Dict[PathCode, _Responsibility] = {}
        self._step_scheduled = False
        self._idle_poll_armed = False
        self._last_request: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        self._schedule_step(0.0)
        self.set_timer(self.redo_timeout, "redo-check")

    def on_message_queued(self, message: QueuedMessage) -> None:
        if self.alive and not self.terminated and not self._step_scheduled:
            self._schedule_step(0.0)

    def on_wakeup(self, reason: str) -> None:
        if not self.alive or self.terminated:
            return
        if reason == "redo-check":
            self._redo_stale()
            self.set_timer(self.redo_timeout, "redo-check")
        elif reason == "idle-poll":
            self._idle_poll_armed = False
        if not self._step_scheduled:
            self._schedule_step(0.0)

    def _schedule_step(self, delay: float) -> None:
        if not self.alive or self.terminated or self._step_scheduled:
            return
        self._step_scheduled = True
        assert self.engine is not None
        self.engine.post(delay, self._step, label=f"{self.name}:dib-step")

    # ------------------------------------------------------------------ #
    # Responsibility management
    # ------------------------------------------------------------------ #
    def _redo_stale(self) -> None:
        """Redo problems handed to machines that never reported completion.

        This is DIB's recovery action.  The redo may duplicate work that is
        actually in progress at a slow (but healthy) machine; like the paper's
        mechanism, DIB accepts redundant work as the price of simplicity.
        """
        now = self.engine.now if self.engine else 0.0
        for code, responsibility in list(self.handed_out.items()):
            if self.done.covers(code):
                del self.handed_out[code]
                continue
            donee_dead = False
            if self.network is not None:
                try:
                    donee_dead = not self.network.entity(responsibility.donee).alive
                except KeyError:
                    donee_dead = True
            if donee_dead or (now - responsibility.sent_at) >= self.redo_timeout:
                del self.handed_out[code]
                self.recoveries += 1
                if not self.requeue(code):
                    self._mark_done(code)

    def _mark_done(self, code: PathCode) -> None:
        """Record a completed subtree and propagate completion upward."""
        self.done.add(code)
        # Report every received problem whose subtree is now fully covered to
        # the machine it came from.
        for received_code, donor in list(self.received_from.items()):
            if self.done.covers(received_code):
                del self.received_from[received_code]
                self.send(
                    donor,
                    DibCompletionReport(self.name, received_code, self.incumbent),
                )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def _step(self) -> None:
        self._step_scheduled = False
        if not self.alive or self.terminated:
            return
        self.process_pending_messages()
        if self.terminated:
            return

        if self._check_root_completion():
            return

        if not self.pool:
            now = self.engine.now if self.engine else 0.0
            may_request = self._last_request is None or (now - self._last_request) >= self.poll_interval
            if self.peers and may_request:
                victim = self.rng.choice(self.peers)
                self.send(victim, DibWorkRequest(requester=self.name))
                self._last_request = now
            if not self._idle_poll_armed:
                self._idle_poll_armed = True
                self.set_timer(self.poll_interval, "idle-poll")
            return

        sub = self.pool.pop()
        if self.done.covers(sub.code):
            self._schedule_step(0.0)
            return
        outcome = self.expander.expand(sub, self.incumbent)
        self.record_expansion(sub.code)
        if outcome.incumbent_value is not None:
            self.incumbent = outcome.incumbent_value
        for code in outcome.completed:
            self._mark_done(code)
        for child, bound in outcome.children:
            self.pool.push(child, bound=bound)
        self._schedule_step(outcome.cost)

    def _check_root_completion(self) -> bool:
        """Only the machine responsible for the original problem can terminate."""
        if self.name == self.members[0] and self.done.covers(ROOT):
            self.terminated = True
            self.terminated_at = self.engine.now if self.engine else 0.0
            for peer in self.peers:
                self.send(peer, DibTerminationAnnounce(best_value=self.incumbent))
            return True
        return False

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def on_message(self, message: QueuedMessage) -> None:
        payload = message.payload
        now = self.engine.now if self.engine else 0.0
        if isinstance(payload, DibWorkRequest):
            self._answer_request(payload.requester, now)
        elif isinstance(payload, DibWorkGrant):
            self._accept_grant(payload)
        elif isinstance(payload, DibWorkDenied):
            self.adopt(payload.incumbent)
        elif isinstance(payload, DibCompletionReport):
            self.adopt(payload.incumbent)
            self.handed_out.pop(payload.code, None)
            self._mark_done(payload.code)
        elif isinstance(payload, DibTerminationAnnounce):
            self.adopt(payload.best_value)
            self.terminated = True
            self.terminated_at = now

    def _answer_request(self, requester: str, now: float) -> None:
        if len(self.pool) > self.keep_at_least:
            donated = self.pool.take_for_donation(
                max_count=self.donation_max, keep_at_least=self.keep_at_least
            )
            codes = tuple(sub.code for sub in donated)
            for code in codes:
                self.handed_out[code] = _Responsibility(code=code, donee=requester, sent_at=now)
            self.send(requester, DibWorkGrant(donor=self.name, codes=codes, incumbent=self.incumbent))
        else:
            self.send(requester, DibWorkDenied(donor=self.name, incumbent=self.incumbent))

    def _accept_grant(self, grant: DibWorkGrant) -> None:
        self.adopt(grant.incumbent)
        for code in grant.codes:
            self.received_from[code] = grant.donor
            if not self.requeue(code):
                self._mark_done(code)


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def run_dib_simulation(
    problem: BranchAndBoundProblem,
    n_workers: int,
    *,
    failures: Sequence[CrashEvent] = (),
    seed: int = 0,
    network: Optional["NetworkConfig"] = None,
    max_sim_time: float = 10_000.0,
    redo_timeout: float = 5.0,
) -> BaselineRunResult:
    """Run the DIB-style baseline and return its result.

    The machine named ``dworker-00`` holds the original problem and the root
    of the responsibility hierarchy; crashing it demonstrates DIB's reliance
    on a reliable root (the run then stops at ``max_sim_time`` without
    detecting termination).  The other parameters are those of
    :func:`~repro.baselines.harness.run_baseline`.
    """

    def cast(names: List[str], rng: RngRegistry, arena: TrieArena) -> Cast:
        workers = [
            DibWorkerEntity(
                name,
                problem,
                names,
                rng=rng.stream(f"dib:{name}"),
                redo_timeout=redo_timeout,
                arena=arena,
            )
            for name in names
        ]
        workers[0].requeue(ROOT)
        return workers, None

    return run_baseline(
        problem,
        n_workers,
        dib_worker_names,
        cast,
        failures=failures,
        seed=seed,
        network=network,
        max_sim_time=max_sim_time,
    )
