"""Footprint guards for the completion-trie arena.

The arena is the storage behind every completed table, peer view and
in-flight payload of a simulated group, so its per-node and per-view costs
multiply by the node count and by the (worker, peer) pair count.  These
guards pin the three costs that matter: no arena holder per peer view, no
interning on a merge that changes nothing, and the bytes one interned node
costs.
"""

import gc
import random
import tracemalloc

from repro.core.arena import TrieArena
from repro.core.codeset import CodeSet
from repro.core.completion import CompletionTracker
from repro.core.encoding import PathCode


def code_of(bits) -> PathCode:
    """The code taking branch ``bits[d]`` on variable ``d`` at each depth."""
    return PathCode(tuple(enumerate(int(bit) for bit in bits)))


def random_code(rng: random.Random, max_depth: int, min_depth: int = 1) -> PathCode:
    depth = rng.randint(min_depth, max_depth)
    return code_of(rng.randint(0, 1) for _ in range(depth))


def test_peer_views_add_no_arena_holder():
    """Fifty peer views, each with known codes, a pending send and a
    received report in its backlog, register nothing with the arena: the
    tracker is their one holder."""
    arena = TrieArena()
    tracker = CompletionTracker("w", arena=arena)
    sender = CompletionTracker("s", report_threshold=1, arena=arena)
    rng = random.Random(5)
    for i in range(50):
        peer = f"p{i}"
        tracker.record_completed(random_code(rng, 12))
        acked = tracker.build_delta_snapshot(peer)
        assert tracker.note_snapshot_ack(peer, acked.full_digest)
        tracker.record_completed(random_code(rng, 12))
        tracker.build_delta_snapshot(peer)  # stays pending
        sender.record_completed(random_code(rng, 12))
        report = sender.build_report()
        tracker.merge_report(report)
        tracker.note_peer_covers(peer, report.codes)
    del acked, report
    gc.collect()
    assert set(arena._holders) == {id(tracker), id(tracker.table), id(sender), id(sender.table)}
    view = tracker.peer_view("p0")
    assert view.pending and view._backlog and view.known


def test_merging_a_covered_set_interns_nothing(monkeypatch):
    """A merge that changes no branch returns the table's own node: it
    neither grows the arena nor looks a node up."""
    arena = TrieArena()
    rng = random.Random(11)
    codes = [random_code(rng, 18, min_depth=8) for _ in range(400)]
    table = CodeSet(codes, arena=arena)
    assert len(table) > 300
    covered = CodeSet.of_node(arena, arena.node_from_codes(rng.sample(codes, 60)))
    deeper = CodeSet.of_node(
        arena, arena.node_from_codes(c.child(c.depth, 1) for c in table.codes() if c.depth < 12)
    )
    lookups = []
    real = TrieArena._intern_node
    monkeypatch.setattr(
        TrieArena, "_intern_node", lambda self, node: lookups.append(node) or real(self, node)
    )
    nodes = len(arena)
    before = table.node_id()
    for other in (covered, deeper, table.copy()):
        assert table.merge(other) is False
    assert table.node_id() == before
    assert len(arena) == nodes
    assert lookups == []


def test_bytes_per_interned_node():
    """An interned node costs one flat tuple, one intern-map entry and four
    array words.  Measured 157.3 B per node on CPython 3.11 for this seeded
    build of 10,092 nodes; the bound is that plus 20 %."""
    rng = random.Random(23)
    batches = [[random_code(rng, 22)._key_path() for _ in range(40)] for _ in range(400)]
    gc.collect()
    tracemalloc.start()
    try:
        arena = TrieArena()
        for batch in batches:
            arena.node_from_keys(batch)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 9_000 <= len(arena) <= 11_000
    assert traced / len(arena) <= 157.3 * 1.2
