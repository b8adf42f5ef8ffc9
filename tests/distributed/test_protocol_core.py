"""One protocol core, two drivers.

The worker protocol lives once, in :mod:`repro.distributed.protocol`.  The
simulated worker (:class:`~repro.distributed.worker.WorkerEntity`) and the
real-process loop (:func:`repro.realexec.node.worker_main`) only drive it.
These tests hold that shape:

* ``TestTwoDriversOneProtocol`` feeds one scripted schedule — reports, a
  pull, grants, denials, requests walked on, table gossip, a closing root
  report — to both drivers and asserts the same ordered sends, the same
  final table and the same counters;
* ``TestStructure`` fails the suite when a second copy of the loop creeps
  back into ``node.py``, the core starts depending on a driver, or a driver
  collects the trie arena other than through its one rule;
* ``TestRealWorkerArena`` repeats the schedule on the real-worker driver and
  holds its arena to the collection rule.
"""

import ast
import dataclasses
import inspect
import multiprocessing
import random
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.bnb.tree_problem import TreeReplayProblem
from repro.core import arena as arena_module
from repro.core.arena import DONE, EMPTY, TrieArena
from repro.core.encoding import ROOT
from repro.core.termination import make_root_report
from repro.core.work_report import DeltaSnapshot, WorkReport, table_digest
from repro.distributed.messages import (
    DeltaGossipMsg,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from repro.distributed.worker import WorkerEntity
from repro.realexec import node
from repro.realexec.driver import LocalCluster
from repro.realexec.node import RealWorkerConfig, worker_main
from repro.realexec.transport import Envelope, recv_envelope, send_envelope
from repro.simulation.engine import SimulationEngine
from repro.simulation.entity import QueuedMessage
from repro.simulation.network import Network

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MEMBERS = ("w0", "w1", "w2", "w3")
SEED = 7
#: Coarse grain, so an idle worker walks requests on (pacing.walk_hops).
NODE_COST = 3.35


@pytest.fixture(scope="module")
def tree():
    return generate_random_tree(
        RandomTreeSpec(nodes=61, mean_node_time=0.0, seed=5, name="two-drivers")
    )


@pytest.fixture(scope="module")
def schedule(tree):
    """``(sender, payload)`` frames ``w1`` receives, in order; none of them
    waits on a timer, and the last is a root report that ends the run."""
    left, right = (n.code for n in tree.children(ROOT))
    grandchild, cousin = (n.code for n in tree.children(left))
    granted = tuple(n.code for n in tree.children(cousin))
    assert len(granted) == 2

    def report(sender, *codes):
        return WorkReportMsg(WorkReport.build(sender, list(codes)))

    empty = DeltaSnapshot("w2", frozenset(), full_digest=table_digest(frozenset()))
    gossip = DeltaSnapshot("w3", frozenset({right}), full_digest=table_digest(frozenset({right})))
    return [
        ("w0", report("w0", grandchild, right)),
        ("w2", report("w2", grandchild)),  # teaches nothing: answered with news
        ("w2", DeltaGossipMsg(empty)),  # a pull
        # Idle at coarse grain: walked on, each to a peer drawn at random.
        *[("w0", WorkRequest("w0", seq)) for seq in range(5, 11)],
        ("w2", WorkRequest("w2", 9, 2)),  # at the hop limit: exhausted
        ("w0", WorkGrant("w0", granted)),
        ("w3", WorkRequest("w3", 3)),  # two subproblems now: one is granted
        ("w3", WorkRequest("w3", 4)),  # a pool of one: denied, not exhausted
        ("w2", WorkDenied("w2")),
        ("w2", WorkDenied("w2", 1, exhausted=True)),
        ("w3", DeltaGossipMsg(gossip)),  # acknowledged
        ("w0", WorkReportMsg(make_root_report("w0"))),
    ]


def run_simulated(tree, schedule):
    """``w1`` as a :class:`WorkerEntity` alone on an engine; returns it and
    its sends."""
    problem = TreeReplayProblem(tree)
    worker = WorkerEntity(
        "w1",
        problem,
        RealWorkerConfig.config,
        list(MEMBERS),
        rng=random.Random(SEED),
        expected_node_cost=NODE_COST,
    )
    engine = SimulationEngine()
    Network(engine).register(worker)
    sent = []
    worker.send = lambda destination, payload: sent.append((destination, payload))
    for sender, payload in schedule:
        worker.inbox.append(QueuedMessage(sender, payload, 0.0, 0.0, payload.wire_size()))
    worker.on_start()
    engine.run(stop_when=lambda: worker.terminated)
    return worker, sent


def run_real(tree, schedule, monkeypatch, *, node_sleep=NODE_COST, pause=None):
    """``w1`` as :func:`worker_main` on one end of a pipe; returns its core
    and its protocol sends (the driver's outcome frame left out).

    By default every frame is queued before the worker starts.  With
    ``pause`` the frames are fed after it starts, and an entry ``None`` in
    the schedule waits ``pause`` seconds."""
    cores = []

    class Recorded(node.RealWorker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            cores.append(self)

    monkeypatch.setattr(node, "RealWorker", Recorded)
    ours, theirs = multiprocessing.Pipe()
    config = RealWorkerConfig(
        name="w1",
        members=MEMBERS,
        tree_data=tree.to_dict(),
        node_sleep=node_sleep,
        seed=SEED,
        max_seconds=10.0,
    )

    def feed():
        for entry in schedule:
            if entry is None:
                time.sleep(pause)
            else:
                sender, payload = entry
                send_envelope(ours, Envelope(sender, "w1", payload))

    if pause is None:
        feed()
    # The worker "connects" to one end of a pipe, a message-delimited link.
    endpoint = SimpleNamespace(connect=lambda: theirs)
    thread = threading.Thread(target=worker_main, args=(config, endpoint), daemon=True)
    thread.start()
    if pause is not None:
        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
    sent = []
    while True:
        try:
            envelope = recv_envelope(ours)
        except (EOFError, OSError):
            break
        if envelope.destination != "__driver__":
            sent.append((envelope.destination, envelope.payload))
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    (core,) = cores
    return core, sent


def live_nodes(arena: TrieArena) -> int:
    """Nodes reachable from the arena's registered holders, sentinels too."""
    seen = set()
    stack = [nid for holder in list(arena._holders.values()) for nid in holder._arena_ids()]
    while stack:
        nid = stack.pop()
        if nid not in (DONE, EMPTY) and nid not in seen:
            seen.add(nid)
            stack.extend(arena.children(nid))
    return len(seen) + 2


class TestTwoDriversOneProtocol:
    COUNTERS = (
        "work_denials_sent",
        "work_grants_sent",
        "work_grants_received",
        "work_requests_forwarded",
        "news_answers_sent",
        "gossip_acks_sent",
        "walks_exhausted",
        "codes_received",
        "codes_received_redundant",
    )

    def test_same_sends_same_table(self, tree, schedule, monkeypatch):
        simulated, simulated_sent = run_simulated(tree, schedule)
        real, real_sent = run_real(tree, schedule, monkeypatch)
        assert real_sent == simulated_sent
        # The schedule reached every rule it was written for.
        kinds = [type(payload).__name__ for _, payload in simulated_sent]
        assert kinds == [
            "DeltaGossipMsg",  # news for the report that taught nothing
            "DeltaGossipMsg",  # news for the pull
            *["WorkRequest"] * 6,  # the walks, one hop on
            "WorkDenied",  # exhausted
            "WorkGrant",
            "WorkDenied",  # the pool of one
            "TableGossipAck",
        ]
        walked_to = {destination for destination, _ in simulated_sent[2:8]}
        assert walked_to == {"w2", "w3"}
        assert simulated_sent[8] == ("w2", WorkDenied("w1", 9, exhausted=True))
        assert simulated_sent[10] == ("w3", WorkDenied("w1", 4))
        assert real.tracker.table_digest_now() == simulated.tracker.table_digest_now()
        assert real.terminated and simulated.terminated
        assert real.termination.detected_via == simulated.termination.detected_via == "root_report"
        for counter in self.COUNTERS:
            real_value = getattr(real.stats, counter)
            assert real_value == getattr(simulated.stats, counter), counter


class TestRealWorkerArena:
    #: A floor far below the default, so a 61-node tree's garbage reaches it.
    FLOOR = 8
    REPEATS = 12

    def test_repeated_schedule_keeps_the_arena_collected(self, tree, schedule, monkeypatch):
        """The real-worker loop applies the arena's collection rule between
        passes: fed the schedule many times over — its grants, denials and
        reports left out (no work, no recovery), and each round with a
        report of two fresh leaves, so the table keeps changing but never
        completes before the closing root report — each collection keeps
        exactly the live nodes, and between collections the arena stays
        within twice those live nodes plus the floor."""
        monkeypatch.setattr(arena_module, "_COLLECT_FLOOR", self.FLOOR)
        rule = TrieArena.collect_if_outgrown
        survivors = [2]
        within = []

        def checked(arena):
            collected = rule(arena)
            if collected:
                survivors.append(len(arena))
                within.append(len(arena) == live_nodes(arena))
            within.append(len(arena) <= 2 * survivors[-1] + self.FLOOR)
            return collected

        monkeypatch.setattr(TrieArena, "collect_if_outgrown", checked)
        body = [
            entry
            for entry in schedule[:-1]
            if not isinstance(entry[1], (WorkGrant, WorkDenied, WorkReportMsg))
        ]
        # The first leaf stays missing (the schedule's gossip covers only
        # the right subtree): the table never completes alone.
        fresh = sorted(leaf.code for leaf in tree.leaves())[1:]
        rounds = min(self.REPEATS, len(fresh) // 2)
        repeated = []
        for r in range(rounds):
            report = WorkReport.build("w2", fresh[2 * r : 2 * r + 2])
            repeated += body + [("w2", WorkReportMsg(report)), None]
        repeated += schedule[-1:]
        real, _sent = run_real(tree, repeated, monkeypatch, pause=0.02)
        arena = real.tracker.arena
        assert real.termination.detected_via == "root_report"
        assert rounds >= 6
        assert len(within) >= rounds // 2  # the rule ran between passes
        assert all(within)
        assert arena.collections > 0


def _imports(path: Path, package: str):
    """Absolute module names imported by ``path`` (relative ones resolved
    against ``package``), with the names each import binds."""
    for stmt in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(stmt, ast.ImportFrom):
            base = package.split(".")
            module = ".".join(base[: len(base) - stmt.level] + [stmt.module or ""])
            if not stmt.level:
                module = stmt.module
            yield module.rstrip("."), [alias.name for alias in stmt.names]
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield alias.name, []


class TestStructure:
    """A second copy of the worker loop fails tier-1 (modelled on the
    AlgorithmConfig knob budget)."""

    MESSAGES = {
        "WorkGrant",
        "WorkRequest",
        "WorkDenied",
        "WorkReportMsg",
        "DeltaGossipMsg",
        "TableGossipAck",
    }

    def test_node_has_no_protocol_dispatch(self):
        path = SRC / "realexec" / "node.py"
        imported = {name for _, names in _imports(path, "repro.realexec.node") for name in names}
        assert imported.isdisjoint(self.MESSAGES)
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance":
                subject = call.args[0]
                assert not (
                    getattr(subject, "id", None) == "payload"
                    or getattr(subject, "attr", None) == "payload"
                ), ast.dump(call)

    def test_worker_main_is_an_io_loop(self):
        path = SRC / "realexec" / "node.py"
        (function,) = [
            stmt
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "worker_main"
        ]
        assert function.end_lineno - function.lineno + 1 <= 150
        assert len(path.read_text(encoding="utf-8").splitlines()) <= 400

    def test_core_depends_on_no_driver(self):
        path = SRC / "distributed" / "protocol.py"
        modules = [module for module, _ in _imports(path, "repro.distributed.protocol")]
        assert "repro.distributed.pacing" in modules or "repro.distributed" in modules
        for module in modules:
            assert not module.startswith(("repro.simulation", "repro.realexec")), module
            assert module != "repro.distributed.worker", module

    def test_drivers_collect_only_through_the_arena_rule(self):
        drivers = (
            SRC / "distributed" / "runner.py",
            SRC / "realexec" / "node.py",
            SRC / "baselines" / "harness.py",
        )
        for path in drivers:
            called = {
                node.func.attr
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            }
            assert "collect_if_outgrown" in called, path
        # Nothing outside the arena calls its collection, or reads its
        # threshold: the rule lives once, in repro.core.arena.
        for path in SRC.rglob("*.py"):
            if path == SRC / "core" / "arena.py":
                continue
            text = path.read_text(encoding="utf-8")
            assert "_collect_threshold" not in text and "_COLLECT_FLOOR" not in text, path
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    assert node.func.attr != "collect", path

    def test_real_workers_take_one_algorithm_config(self):
        retired = {"report_threshold", "report_fanout", "recovery_failed_threshold"}
        fields = {field.name for field in dataclasses.fields(RealWorkerConfig)}
        assert "config" in fields and fields.isdisjoint(retired)
        parameters = set(inspect.signature(LocalCluster).parameters)
        assert "config" in parameters and parameters.isdisjoint(retired)
