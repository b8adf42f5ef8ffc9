"""Delta table gossip: convergence properties and simulator integration.

The central claim pinned here: shipping per-peer deltas instead of the
paper's whole-table push changes the *bytes*, never the *information*.  A
seeded random scheduler drives a group of :class:`CompletionTracker`\\ s
through arbitrary interleavings of local completions, delta gossips,
acknowledgements and message loss (including total loss of every ack), then
lets gossip finish over a reliable phase — and every tracker must end with
exactly the ``codes()`` that in-process whole-snapshot merges
(:meth:`~CompletionTracker.merge_snapshot`, the reference) produce, which is
also the contraction of everything any member completed.

A second family exercises the full simulator: runs with and without crashes
terminate on the reference optimum, table-dissemination traffic is accounted
under the delta-gossip kinds, and on the paper's Figure 3 workload it is at
least 3x smaller than pushing the whole table at every due push would have
been.
"""

import random

import pytest

from repro.analysis.figures import figure3_tree
from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.core.codeset import CodeSet, contract_reference
from repro.core.completion import CompletionTracker
from repro.core.encoding import PathCode
from repro.core.work_report import table_digest
from repro.distributed import pacing
from repro.distributed.config import AlgorithmConfig
from repro.distributed.messages import MessageKinds
from repro.distributed.protocol import ProtocolCore
from repro.distributed.runner import run_tree_simulation, worker_names
from repro.simulation.failures import random_crash_schedule


# --------------------------------------------------------------------------- #
# Tracker-level convergence property
# --------------------------------------------------------------------------- #
def random_code(rng, max_depth=6):
    depth = rng.randint(1, max_depth)
    return PathCode(tuple((level, rng.randint(0, 1)) for level in range(depth)))


def deliver_delta(sender: CompletionTracker, receiver: CompletionTracker, *, ack_lost: bool):
    """One delta exchange: build, merge at the receiver, maybe ack back."""
    delta = sender.build_delta_snapshot(receiver.owner)
    receiver.merge_delta(delta)
    receiver.note_peer_covers(delta.sender, delta.codes)
    if not ack_lost and not delta.is_empty:
        sender.note_snapshot_ack(receiver.owner, delta.full_digest)


def build_schedule(seed: int):
    """Pre-draw a seeded event schedule shared verbatim by every mode.

    Every random decision — completions, gossip pairs, loss coins, the
    delta-vs-snapshot coin used by ``"mixed"`` — is drawn here, so the two
    modes replay *identical* interleavings and their results are directly
    comparable.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    events = []
    for _ in range(rng.randint(20, 80)):
        if rng.random() < 0.5:
            events.append(("complete", rng.randrange(n), random_code(rng)))
        else:
            a, b = rng.sample(range(n), 2)
            events.append(
                (
                    "gossip",
                    a,
                    b,
                    rng.random() < 0.4,  # gossip message lost
                    rng.random() < 0.4,  # ack lost (delta mode only)
                    rng.random() < 0.5,  # mixed mode: use delta?
                )
            )
    return n, events


def run_gossip_schedule(seed: int, *, mode: str) -> tuple:
    """Replay a seeded schedule under one dissemination mode.

    ``mode`` selects the mechanism: ``"snapshot"`` is the whole-table
    reference, ``"delta"`` the anti-entropy replacement, and ``"mixed"``
    follows the schedule's per-gossip coin (both kinds interleaved).  After the
    chaotic phase a lossless closing phase lets gossip finish.
    """
    n, events = build_schedule(seed)
    trackers = [CompletionTracker(f"t{i}") for i in range(n)]
    completed = []

    def gossip(a, b, *, lost, ack_lost, use_delta):
        if lost:
            if use_delta:
                # The delta is built (per-peer sequence advances) but the
                # message never arrives.
                a.build_delta_snapshot(b.owner)
            return
        if use_delta:
            deliver_delta(a, b, ack_lost=ack_lost)
        else:
            b.merge_snapshot(a.build_table_snapshot())

    for event in events:
        if event[0] == "complete":
            trackers[event[1]].record_completed(event[2])
            completed.append(event[2])
        else:
            _, a, b, lost, ack_lost, mixed_coin = event
            use_delta = mode == "delta" or (mode == "mixed" and mixed_coin)
            gossip(trackers[a], trackers[b], lost=lost, ack_lost=ack_lost, use_delta=use_delta)

    # Closing phase: reliable pairwise gossip until every view settles.
    for round_index in range(4):
        for ai, a in enumerate(trackers):
            for b in trackers:
                if a is not b:
                    use_delta = mode == "delta" or (
                        mode == "mixed" and (round_index + ai) % 2 == 0
                    )
                    gossip(a, b, lost=False, ack_lost=False, use_delta=use_delta)

    return [t.table.codes() for t in trackers], completed


class TestDeltaGossipConvergence:
    @pytest.mark.parametrize("seed", range(60))
    def test_delta_interleavings_converge_to_snapshot_result(self, seed):
        """Any interleaving of deltas + loss ends where snapshots end."""
        delta_tables, delta_completed = run_gossip_schedule(seed, mode="delta")
        snap_tables, snap_completed = run_gossip_schedule(seed, mode="snapshot")
        # Same seed -> same completions in both runs.
        assert delta_completed == snap_completed
        reference = frozenset(contract_reference(delta_completed))
        for table in delta_tables + snap_tables:
            assert table == reference

    @pytest.mark.parametrize("seed", range(60, 100))
    def test_mixed_mode_converges(self, seed):
        """Snapshot and delta gossip interoperate within one group."""
        tables, completed = run_gossip_schedule(seed, mode="mixed")
        reference = frozenset(contract_reference(completed))
        for table in tables:
            assert table == reference

    def test_total_ack_loss_still_converges(self):
        """Deltas keep re-shipping unacked codes, so acks are optional."""
        rng = random.Random(424242)
        a = CompletionTracker("a")
        b = CompletionTracker("b")
        expected = []
        for _ in range(30):
            code = random_code(rng)
            a.record_completed(code)
            expected.append(code)
            delta = a.build_delta_snapshot("b")
            if rng.random() < 0.5:
                continue  # delta lost too
            b.merge_delta(delta)
            # The ack never arrives: a's view of b must not advance.
        final = a.build_delta_snapshot("b")
        b.merge_delta(final)
        assert b.table.codes() == a.table.codes()


class TestPeerGossipView:
    def test_first_delta_ships_whole_table_and_shrinks_after_ack(self):
        tracker = CompletionTracker("w0")
        for i in range(6):
            tracker.record_completed(PathCode(((0, 0), (1, i % 2), (2 + i, 0))))
        first = tracker.build_delta_snapshot("w1")
        assert first.codes == tracker.table.codes()
        tracker.note_snapshot_ack("w1", first.full_digest)
        # Nothing changed since the ack: the next delta is empty.
        second = tracker.build_delta_snapshot("w1")
        assert second.is_empty
        # New completion -> only the news is shipped.
        fresh = PathCode(((9, 1), (10, 0)))
        tracker.record_completed(fresh)
        third = tracker.build_delta_snapshot("w1")
        assert third.codes == frozenset({fresh})

    @pytest.mark.parametrize("seed", range(8))
    def test_first_delta_to_a_fresh_peer_is_the_whole_table(self, seed):
        # The one gossip path needs no bootstrap message: a peer that has
        # acknowledged nothing receives the whole table under its digest, and
        # merging it leaves an empty receiver where a whole-snapshot merge would.
        rng = random.Random(seed)
        tracker = CompletionTracker("w0")
        for _ in range(rng.randint(1, 40)):
            tracker.record_completed(random_code(rng))
        first = tracker.build_delta_snapshot("w1")
        snapshot = tracker.build_table_snapshot()
        assert first.codes.codes() == snapshot.codes.codes() == tracker.table.codes()
        assert first.full_digest == tracker.table_digest_now()
        by_delta = CompletionTracker("r1", arena=tracker.arena)
        by_snapshot = CompletionTracker("r2", arena=tracker.arena)
        assert by_delta.merge_delta(first)
        assert by_snapshot.merge_snapshot(snapshot)
        assert by_delta.table.codes() == by_snapshot.table.codes() == tracker.table.codes()

    def test_unacked_codes_are_reshipped(self):
        tracker = CompletionTracker("w0")
        tracker.record_completed(PathCode(((0, 0),)))
        first = tracker.build_delta_snapshot("w1")
        tracker.record_completed(PathCode(((1, 1), (2, 0))))
        # First delta never acked: the second must contain both codes.
        second = tracker.build_delta_snapshot("w1")
        assert first.codes.codes() <= second.codes.codes()

    def test_stale_ack_is_ignored(self):
        tracker = CompletionTracker("w0")
        tracker.record_completed(PathCode(((0, 0),)))
        delta = tracker.build_delta_snapshot("w1")
        assert not tracker.note_snapshot_ack("w1", delta.full_digest ^ 1)
        assert not tracker.note_snapshot_ack("w9", delta.full_digest)
        assert tracker.note_snapshot_ack("w1", delta.full_digest)

    def test_reverse_channel_learning_shrinks_deltas(self):
        tracker = CompletionTracker("w0")
        shared = PathCode(((0, 0), (1, 1)))
        own = PathCode(((5, 1),))
        tracker.record_completed(shared)
        tracker.record_completed(own)
        # The peer reported `shared` itself: no need to gossip it back.
        tracker.note_peer_covers("w1", [shared])
        delta = tracker.build_delta_snapshot("w1")
        assert shared not in delta.codes
        assert own in delta.codes

    def test_converged_peer_suppresses_gossip(self):
        tracker = CompletionTracker("w0")
        for i in range(4):
            tracker.record_completed(PathCode(((i, 0),)))
        tracker.note_peer_converged("w1")
        assert tracker.build_delta_snapshot("w1").is_empty


class TestTableDigest:
    def test_digest_is_order_independent_and_stable(self):
        rng = random.Random(9)
        codes = [random_code(rng) for _ in range(25)]
        shuffled = list(codes)
        rng.shuffle(shuffled)
        assert table_digest(codes) == table_digest(shuffled)
        # Rebuilt codes (fresh objects, same pairs) digest identically —
        # the digest must be wire-stable, not id- or hash-seed-dependent.
        rebuilt = [PathCode(c.pairs) for c in codes]
        assert table_digest(codes) == table_digest(rebuilt)

    def test_digest_distinguishes_tables(self):
        a = {PathCode(((0, 0),))}
        b = {PathCode(((0, 1),))}
        assert table_digest(a) != table_digest(b)
        assert table_digest(a) != table_digest(set())

    def test_tracker_digest_memoised_per_state(self):
        tracker = CompletionTracker("w0")
        tracker.record_completed(PathCode(((0, 0),)))
        d1 = tracker.table_digest_now()
        assert tracker.table_digest_now() == d1
        tracker.record_completed(PathCode(((1, 1),)))
        assert tracker.table_digest_now() != d1


class TestSnapshotMergeFastPaths:
    def test_empty_receiver_merges_snapshot_node(self):
        sender = CompletionTracker("s")
        receiver = CompletionTracker("r", arena=sender.arena)
        for i in range(8):
            sender.record_completed(PathCode(((0, 0), (1, i % 2), (2 + i, 1))))
        snapshot = sender.build_table_snapshot()
        assert receiver.merge_snapshot(snapshot)
        assert receiver.table.codes() == snapshot.codes.codes()
        assert receiver.codes_received == len(snapshot.codes)
        assert receiver.redundant_codes_received == 0
        assert receiver.bytes_stored_remote == sender.table.wire_size()
        # The merged table is independent of the sender's.
        receiver.record_completed(PathCode(((50, 0),)))
        assert not sender.table.covers(PathCode(((50, 0),)))

    def test_nonempty_receiver_merges_by_node_with_counters(self):
        sender = CompletionTracker("s")
        receiver = CompletionTracker("r", arena=sender.arena)
        overlap = PathCode(((0, 0), (1, 1)))
        for tracker in (sender, receiver):
            tracker.record_completed(overlap)
        sender.record_completed(PathCode(((7, 1),)))
        snapshot = sender.build_table_snapshot()
        assert isinstance(snapshot.codes, CodeSet)
        before_received = receiver.codes_received
        assert receiver.merge_snapshot(snapshot)
        assert receiver.codes_received - before_received == len(snapshot.codes)
        assert receiver.redundant_codes_received == 1  # the overlap
        assert receiver.table.codes() == frozenset(
            contract_reference([overlap, PathCode(((7, 1),))])
        )


# --------------------------------------------------------------------------- #
# Simulator integration
# --------------------------------------------------------------------------- #
def gossip_tree():
    return generate_random_tree(
        RandomTreeSpec(nodes=301, mean_node_time=0.004, seed=21, name="delta-gossip-301n")
    )


class TestSimulatorWithDeltaGossip:
    def test_runs_solve_correctly(self, monkeypatch):
        monkeypatch.setattr(pacing, "TABLE_GOSSIP_INTERVAL", 0.05)
        config = AlgorithmConfig(selection_rule=SelectionRule.BEST_FIRST)
        result = run_tree_simulation(
            gossip_tree(), 4, config=config, seed=13, prune=False
        )
        assert result.all_terminated
        assert result.solved_correctly
        dissemination = [
            kind for kind in result.bytes_by_kind if kind in MessageKinds.TABLE_DISSEMINATION
        ]
        assert any(k in ("delta_gossip", "gossip_ack") for k in dissemination)

    def test_crash_runs_still_recover(self, monkeypatch):
        monkeypatch.setattr(pacing, "TABLE_GOSSIP_INTERVAL", 0.1)
        names = worker_names(4)
        failures = random_crash_schedule(
            names, n_failures=2, start=0.1, end=0.6, seed=3, spare=names[0]
        )
        config = AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST)
        result = run_tree_simulation(
            gossip_tree(), 4, config=config, seed=29, prune=False, failures=failures
        )
        assert result.crashed_workers
        assert result.all_terminated
        assert result.solved_correctly

    def test_every_survivor_ends_at_the_root(self):
        config = AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST)
        result = run_tree_simulation(gossip_tree(), 3, config=config, seed=5, prune=False)
        assert result.all_terminated
        for stats in result.workers.values():
            assert stats.terminated

    def test_table_dissemination_byte_reduction(self, monkeypatch):
        """Delta gossip ships >= 3x fewer table-dissemination bytes on Figure 3
        than pushing the whole table at every due push would have.

        The full-size Figure 3 tree (~3,500 nodes x 0.01 s, 8 workers) under
        a gossip-heavy configuration: best-first selection keeps completed
        regions scattered and tables large, and tables are pushed every
        30 ms.  At every due push, including those suppressed because the
        delta was empty, the whole table the paper's push would have sent is
        weighed (``build_table_snapshot().wire_size()``) against the delta
        *plus* ack bytes the run sent, so the acknowledgement overhead is
        charged to the scheme that causes it.  A second run pushing whole
        tables read 3.27x (3,029,327 vs 925,830 bytes) against a 3.0 bound;
        this run's whole tables weigh 3,956,521 bytes, 4.27x, so the bound
        rises by the same 1.0 to keep its margin.
        """
        monkeypatch.setattr(pacing, "TABLE_GOSSIP_INTERVAL", 0.03)
        whole_table_bytes = 0
        send_table_gossip = ProtocolCore.send_table_gossip

        def weigh_whole_table(core, now):
            nonlocal whole_table_bytes
            snapshot = core.tracker.build_table_snapshot(best=core._my_best())
            whole_table_bytes += snapshot.wire_size()
            return send_table_gossip(core, now)

        monkeypatch.setattr(ProtocolCore, "send_table_gossip", weigh_whole_table)
        config = AlgorithmConfig(selection_rule=SelectionRule.BEST_FIRST)
        tree = figure3_tree(scale=1.0)
        result = run_tree_simulation(tree, 8, config=config, seed=11, prune=False)
        assert result.all_terminated and result.solved_correctly
        delta_bytes = sum(
            result.bytes_by_kind.get(kind, 0) for kind in MessageKinds.TABLE_DISSEMINATION
        )
        reduction = whole_table_bytes / max(1, delta_bytes)
        assert reduction >= 4.0, (
            f"delta gossip only cut table-dissemination bytes {reduction:.2f}x: "
            f"{delta_bytes} vs {whole_table_bytes}"
        )
