"""Redone work asks for news, on the real-process worker loop.

The counterpart of ``TestNewsForRedoneWork`` in
``tests/distributed/test_worker_unit.py``: ``worker_main`` runs in a thread
on one end of a pipe, the test plays its peers on the other end and reads
back every frame the worker sent.  The same harness checks that a frame the
worker cannot decode is dropped like a lost message.
"""

import multiprocessing
import threading
from types import SimpleNamespace

import pytest

from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.core.encoding import ROOT
from repro.core.termination import make_root_report
from repro.core.work_report import DeltaSnapshot, WorkReport, table_digest
from repro.distributed.messages import (
    DeltaGossipMsg,
    TableGossipAck,
    WorkDenied,
    WorkGrant,
    WorkReportMsg,
    WorkRequest,
)
from repro.realexec.node import RealWorkerConfig, WorkerTelemetry, worker_main
from repro.realexec.transport import (
    Envelope,
    encode_envelope,
    recv_envelope,
    send_envelope,
)

MEMBERS = ("w0", "w1", "w2", "w3")


@pytest.fixture(scope="module")
def tree():
    return generate_random_tree(
        RandomTreeSpec(nodes=61, mean_node_time=0.0, seed=5, name="news-tree")
    )


@pytest.fixture(scope="module")
def codes(tree):
    """The root's children and one grandchild under the left one."""
    left, right = (node.code for node in tree.children(ROOT))
    grandchild = next(iter(tree.children(left))).code
    return left, grandchild, right


def report(sender, *codes):
    return WorkReportMsg(WorkReport.build(sender, list(codes)))


def pull(sender, digest=table_digest(frozenset())):
    return DeltaGossipMsg(DeltaSnapshot(sender, frozenset(), full_digest=digest))


def start_worker(tree, **config):
    """``w1``'s loop in a thread; returns (thread, the test's pipe end)."""
    ours, theirs = multiprocessing.Pipe()
    config.setdefault("max_seconds", 10.0)
    worker_config = RealWorkerConfig(
        name="w1", members=MEMBERS, tree_data=tree.to_dict(), **config
    )
    # The worker "connects" to one end of a pipe: a message-delimited link,
    # so each test frame reaches the worker's decode step on its own.
    endpoint = SimpleNamespace(connect=lambda: theirs)
    thread = threading.Thread(target=worker_main, args=(worker_config, endpoint), daemon=True)
    return thread, ours


def read_all(connection):
    """Every envelope the worker sent, up to its end of the pipe closing."""
    sent = []
    while True:
        try:
            sent.append(recv_envelope(connection))
        except (EOFError, OSError):
            return sent


def run_scripted(tree, frames):
    """Deliver ``frames`` before the worker starts, ending with a root report
    so it drains them all in its first pass and stops; return what it sent."""
    thread, ours = start_worker(tree)
    for sender, payload in [*frames, ("w0", WorkReportMsg(make_root_report("w0")))]:
        send_envelope(ours, Envelope(sender, "w1", payload))
    thread.start()
    sent = read_all(ours)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    return sent


def deltas(sent):
    return [
        (e.destination, e.payload.delta) for e in sent if isinstance(e.payload, DeltaGossipMsg)
    ]


class TestNewsOnRealWorker:
    def test_report_that_teaches_nothing_is_answered_with_one_delta(self, tree, codes):
        left, grandchild, right = codes
        sent = run_scripted(
            tree, [("w0", report("w0", grandchild, right)), ("w2", report("w2", grandchild))]
        )
        assert [(to, d.codes) for to, d in deltas(sent)] == [("w2", frozenset({right}))]

    def test_fresh_report_is_not_answered(self, tree, codes):
        left, grandchild, right = codes
        sent = run_scripted(tree, [("w0", report("w0", right)), ("w2", report("w2", grandchild))])
        assert deltas(sent) == []

    def test_report_with_any_news_is_not_answered(self, tree, codes):
        left, grandchild, right = codes
        sent = run_scripted(
            tree,
            [("w0", report("w0", right)), ("w2", report("w2", right, grandchild.sibling()))],
        )
        assert deltas(sent) == []

    def test_pull_is_answered_with_the_receivers_delta_not_an_ack(self, tree, codes):
        left, grandchild, right = codes
        sent = run_scripted(tree, [("w0", report("w0", right)), ("w2", pull("w2"))])
        assert [(to, d.codes) for to, d in deltas(sent)] == [("w2", frozenset({right}))]
        assert not any(isinstance(e.payload, TableGossipAck) for e in sent)

    def test_pull_gets_nothing_when_the_receiver_has_no_news(self, tree):
        sent = run_scripted(tree, [("w2", pull("w2"))])
        assert deltas(sent) == []
        assert not any(isinstance(e.payload, TableGossipAck) for e in sent)

    def test_terminated_worker_answers_nothing(self, tree, codes):
        left, grandchild, right = codes
        # w0's report completes the tree: w1 is done, so neither the report
        # that teaches nothing nor the pull after it gets an answer.
        sent = run_scripted(
            tree,
            [
                ("w0", report("w0", left, right)),
                ("w2", report("w2", grandchild)),
                ("w2", pull("w2")),
            ],
        )
        assert deltas(sent) == []

    def test_starting_a_recovery_pulls_from_report_fanout_peers(self, tree, codes):
        left, grandchild, right = codes
        # Nobody answers w1's requests: with 10 ms nodes it suspects loss
        # after a few request timeouts and regenerates a missing subtree.
        fanout_2 = RealWorkerConfig.config.with_overrides(report_fanout=2)
        thread, ours = start_worker(tree, node_sleep=0.01, config=fanout_2, telemetry=True)
        send_envelope(ours, Envelope("w0", "w1", report("w0", grandchild)))
        thread.start()
        sent = []
        while not any(d.is_empty for _, d in deltas(sent)):
            sent.append(recv_envelope(ours))
        sent.append(recv_envelope(ours))
        send_envelope(ours, Envelope("w0", "w1", WorkReportMsg(make_root_report("w0"))))
        sent += read_all(ours)
        thread.join(timeout=10.0)
        first = [
            i
            for i, e in enumerate(sent)
            if isinstance(e.payload, DeltaGossipMsg) and e.payload.delta.is_empty
        ][:2]
        assert first[1] == first[0] + 1  # sent together, at the recovery
        targets = {sent[i].destination for i in first}
        assert len(targets) == 2 and "w1" not in targets
        (telemetry,) = [e.payload for e in sent if isinstance(e.payload, WorkerTelemetry)]
        counters = telemetry.decoded()["metrics"]["counters"]
        recoveries = counters["worker_recovery_activations{worker=w1}"]
        assert recoveries >= 1
        assert counters["worker_news_pulls_sent{worker=w1}"] == 2 * recoveries
        assert "worker_news_answers_sent{worker=w1}" in counters


def is_pull(envelope):
    return isinstance(envelope.payload, DeltaGossipMsg) and envelope.payload.delta.is_empty


class TestLostRecoveryIsRetried:
    def test_recovered_work_donated_to_a_dead_peer_is_recovered_again(self, tree, codes):
        """w1 recovers the right subtree, gives half of it to w2, and w2 never
        reports it (it died).  Once w1 is starved again the missing piece
        lies inside its own active recovery: it must forget that recovery
        and regenerate the piece, not exclude it forever."""
        left, grandchild, right = codes
        thread, ours = start_worker(tree, node_sleep=0.01, max_seconds=5.0)
        send_envelope(ours, Envelope("w0", "w1", report("w0", left)))
        thread.start()
        envelope = recv_envelope(ours)
        while not is_pull(envelope):  # the recovery of the right subtree
            envelope = recv_envelope(ours)
        send_envelope(ours, Envelope("w2", "w1", WorkRequest("w2")))
        while not isinstance(envelope.payload, WorkGrant):
            envelope = recv_envelope(ours)
            if isinstance(envelope.payload, WorkDenied):  # asked too early
                send_envelope(ours, Envelope("w2", "w1", WorkRequest("w2")))
        (lost,) = envelope.payload.codes
        assert right.is_ancestor_of(lost)
        recovered_again = False
        try:
            while not recovered_again:
                recovered_again = is_pull(recv_envelope(ours))
        except EOFError:  # w1 ran out its time without recovering
            pass
        if recovered_again:
            send_envelope(ours, Envelope("w0", "w1", WorkReportMsg(make_root_report("w0"))))
        read_all(ours)
        thread.join(timeout=10.0)
        assert recovered_again


class TestForeignVersionIsDropped:
    @pytest.mark.parametrize("version", [0, 1, 2, 3])
    def test_frame_of_another_version_is_dropped_like_a_lost_message(
        self, tree, codes, version
    ):
        """w2's report would be answered with news (see
        ``test_report_that_teaches_nothing_is_answered_with_one_delta``);
        under a foreign version byte it is never read, so nobody answers."""
        left, grandchild, right = codes
        thread, ours = start_worker(tree, telemetry=True)
        send_envelope(ours, Envelope("w0", "w1", report("w0", grandchild, right)))
        foreign = bytearray(encode_envelope(Envelope("w2", "w1", report("w2", grandchild))))
        foreign[1] = version
        ours.send_bytes(bytes(foreign))
        send_envelope(ours, Envelope("w0", "w1", WorkReportMsg(make_root_report("w0"))))
        thread.start()
        sent = read_all(ours)
        thread.join(timeout=10.0)
        assert deltas(sent) == []
        (telemetry,) = [e.payload for e in sent if isinstance(e.payload, WorkerTelemetry)]
        counters = telemetry.decoded()["metrics"]["counters"]
        assert counters["worker_frames_dropped{worker=w1}"] == 1
        assert counters["worker_frames_received{worker=w1}"] == 2
