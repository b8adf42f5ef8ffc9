"""Differential guard: collecting the trie arena never changes a run.

The simulator collects its shared :class:`~repro.core.arena.TrieArena`
between events, renumbering every surviving node and remapping each
registered holder.  A holder that was not registered would keep a stale id
and read another node's content, so these runs force a collection after
*every* event and require the run to match, field for field, the same run
whose arena is never collected (a small tree stays under the collection
floor).  The scenario exercises every holder kind: message loss re-sends
deltas (pending sends), a permanent crash leaves a dead worker's tables
behind, restart churn replaces a tracker mid-run, and tables are often
collected with an open insertion path, which the collection interns first.
"""

from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.core import arena
from repro.distributed.config import AlgorithmConfig
from repro.distributed.runner import NetworkConfig, run_tree_simulation
from repro.simulation.failures import CrashEvent


def _run():
    tree = generate_random_tree(
        RandomTreeSpec(nodes=301, mean_node_time=0.02, seed=61, name="collect-tree")
    )
    config = AlgorithmConfig(
        selection_rule=SelectionRule.DEPTH_FIRST,
        failure_detector=True,
        termination_echo=True,
        fd_heartbeat_interval=0.1,
        fd_fail_timeout=0.4,
        fd_cleanup_timeout=0.8,
    )
    return run_tree_simulation(
        tree,
        5,
        config=config,
        network=NetworkConfig(loss_probability=0.05),
        failures=[CrashEvent(0.5, "worker-03")],
        churn_events=[(0.4, "worker-02", "leave"), (0.9, "worker-02", "return")],
        churn_mode="restart",
        seed=11,
        prune=False,
        compute_uniprocessor_time=False,
    )


def test_collecting_after_every_event_changes_nothing(monkeypatch):
    plain = _run()
    assert plain.engine_counters["arena_collections"] == 0

    monkeypatch.setattr(arena, "_collect_threshold", lambda survivors: -1)
    collected = _run()

    events = collected.engine_counters["events_processed"]
    assert collected.engine_counters["arena_collections"] == events
    assert collected.solved_correctly and collected.all_terminated
    assert collected.crashed_workers == plain.crashed_workers == ["worker-03"]
    assert collected.workers["worker-02"].rejoins == 1
    assert sum(s.recovery_activations for s in collected.workers.values()) > 0
    # The whole run, field for field: makespan, per-worker expansions,
    # recoveries, messages and time accounting, redundant work and bytes.
    assert collected.makespan == plain.makespan
    assert collected.workers == plain.workers
    assert collected.redundant_nodes_expanded == plain.redundant_nodes_expanded
    assert collected.total_bytes_sent == plain.total_bytes_sent
    assert collected.bytes_by_kind == plain.bytes_by_kind
    assert collected.messages_by_kind == plain.messages_by_kind
    assert events == plain.engine_counters["events_processed"]
