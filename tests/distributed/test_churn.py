"""Churn test wall: live failure detection, worker rejoin, flapping.

The churn PR makes fault handling *emergent*: peer eviction comes from the
heartbeat failure detector observing staleness (not from a script), and a
worker that leaves and returns re-converges through the delta-gossip
first-contact path instead of receiving a whole-table snapshot.  These tests
pin exactly those behaviours:

* seeded rejoin property tests — a leave→return worker re-converges with
  bounded bytes (zero whole-table snapshots anywhere in the run), including
  flapping (return before the eviction completes);
* a regression test that ``evict_peer`` fires from heartbeat staleness
  alone, with **no** :class:`~repro.simulation.failures.FailureSpec`/crash
  event in the run, and that ``gossip_views_pruned`` accounts it;
* the churn observability: gossip delta sizes and eviction latencies land
  in :class:`~repro.obs.MetricsRegistry` histograms whose snapshot/merge
  path round-trips.
"""

import pytest

from repro.bnb.pool import SelectionRule
from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.distributed.config import AlgorithmConfig
from repro.distributed.runner import (
    DistributedBnBSimulation,
    NetworkConfig,
    run_tree_simulation,
)
from repro.distributed.worker import DELTA_BYTES_BUCKETS
from repro.obs import MetricsRegistry, TelemetryConfig
from repro.simulation.failures import ChurnInjector, CrashEvent


def small_tree(seed=51):
    return generate_random_tree(
        RandomTreeSpec(nodes=101, mean_node_time=0.02, seed=seed, name="churn-tree")
    )


def fd_config(**overrides):
    defaults = dict(
        selection_rule=SelectionRule.DEPTH_FIRST,
        failure_detector=True,
        termination_echo=True,
        fd_heartbeat_interval=0.1,
        fd_fail_timeout=0.4,
        fd_cleanup_timeout=0.8,
    )
    defaults.update(overrides)
    return AlgorithmConfig(**defaults)


class TestChurnInjector:
    def test_validates_mode_and_actions(self):
        with pytest.raises(ValueError):
            ChurnInjector((), mode="hibernate")
        injector = ChurnInjector([(0.5, "w", "meditate")])

        class FakeEngine:
            def schedule_at(self, time, cb, label=""):
                raise AssertionError("should fail before scheduling")

        with pytest.raises(ValueError):
            injector.install(FakeEngine(), network=None)

    def test_pending_returns_counts_only_returns(self):
        injector = ChurnInjector(
            [(0.1, "a", "leave"), (0.5, "a", "return"), (1.0, "b", "leave")]
        )
        assert injector.pending_returns == 1


class TestSeededRejoin:
    """Leave→return re-convergence, across seeds and both churn modes."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13])
    def test_restart_rejoin_converges_without_snapshot_fallback(self, seed):
        result = run_tree_simulation(
            small_tree(seed=50 + seed),
            4,
            config=fd_config(),
            seed=seed,
            prune=False,
            churn_events=[(0.3, "worker-02", "leave"), (1.6, "worker-02", "return")],
            churn_mode="restart",
        )
        assert result.solved_correctly and result.all_terminated
        rejoiner = result.workers["worker-02"]
        assert rejoiner.leaves == 1 and rejoiner.rejoins == 1
        assert rejoiner.terminated
        assert rejoiner.unavailable_time == pytest.approx(1.3)
        # Bounded-bytes first contact: the rejoiner bootstraps through the
        # delta-gossip path; nobody ships a whole-table snapshot, ever.
        for name, stats in result.workers.items():
            assert stats.table_gossips_sent == 0, name
        assert result.messages_by_kind.get("table_gossips", 0) == 0
        assert result.bytes_by_kind.get("table_gossip", 0) == 0
        assert result.bytes_by_kind.get("delta_gossip", 0) > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_suspend_rejoin_keeps_state_and_converges(self, seed):
        result = run_tree_simulation(
            small_tree(seed=80 + seed),
            4,
            config=fd_config(),
            seed=seed,
            prune=False,
            churn_events=[(0.4, "worker-01", "leave"), (1.8, "worker-01", "return")],
            churn_mode="suspend",
        )
        assert result.solved_correctly and result.all_terminated
        rejoiner = result.workers["worker-01"]
        assert rejoiner.rejoins == 1
        assert rejoiner.unavailable_time == pytest.approx(1.4)
        assert result.workers["worker-01"].terminated

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_flapping_rejoin_before_eviction_completes(self, seed):
        """Down for less than the fail timeout: nobody ever evicts."""
        config = fd_config(fd_fail_timeout=1.0, fd_cleanup_timeout=2.0)
        events = []
        for i, leave in enumerate((0.3, 0.9, 1.5)):
            events += [
                (leave, "worker-03", "leave"),
                (leave + 0.2, "worker-03", "return"),
            ]
        result = run_tree_simulation(
            small_tree(seed=60 + seed),
            4,
            config=config,
            seed=seed,
            prune=False,
            churn_events=events,
            churn_mode="restart",
        )
        assert result.solved_correctly and result.all_terminated
        flapper = result.workers["worker-03"]
        assert flapper.leaves == 3 and flapper.rejoins == 3
        # The flap windows (0.2 s) stay inside fd_fail_timeout (1.0 s), so
        # live failure detection must never fire — no evictions anywhere.
        assert sum(s.peers_evicted for s in result.workers.values()) == 0
        assert sum(s.table_gossips_sent for s in result.workers.values()) == 0

    def test_never_returning_leaver_counts_as_crashed(self):
        result = run_tree_simulation(
            small_tree(),
            4,
            config=fd_config(),
            seed=7,
            prune=False,
            churn_events=[(0.3, "worker-02", "leave")],
            churn_mode="restart",
        )
        assert result.solved_correctly and result.all_terminated
        assert "worker-02" in result.crashed_workers
        assert result.workers["worker-02"].unavailable_time > 0.0


class TestEmergentEviction:
    """Satellite regression: eviction from heartbeat staleness *alone*."""

    def test_evict_peer_fires_without_any_failure_spec(self):
        # No FailureSpec, no CrashEvent: the only disturbance is a churn
        # leave, and the only way survivors can learn about it is the live
        # failure detector noticing the heartbeat went stale.
        result = run_tree_simulation(
            small_tree(),
            4,
            config=fd_config(),
            seed=3,
            prune=False,
            failures=(),  # explicitly: nothing scripted
            churn_events=[(0.3, "worker-02", "leave")],
            churn_mode="restart",
        )
        assert result.solved_correctly and result.all_terminated
        survivors = [s for n, s in result.workers.items() if n != "worker-02"]
        evictions = sum(s.peers_evicted for s in survivors)
        assert evictions >= 1, "live staleness detection never evicted the dead peer"
        # One dead peer means at most one eviction per survivor (no re-admit
        # flapping of the dead member thanks to the suspected-digest
        # exclusion); a survivor that terminates before the cleanup timeout
        # elapses legitimately never evicts.
        for stats in survivors:
            assert stats.peers_evicted <= 1, stats.name
        # ... and the eviction pruned the per-peer gossip view, which the
        # gossip_views_pruned counter must account.
        assert sum(s.gossip_views_pruned for s in survivors) >= 1
        assert result.workers["worker-02"].peers_evicted == 0

    def test_no_churn_no_detector_stays_byte_identical(self):
        """The fd knobs default off: a plain run is unchanged by this PR."""
        plain = AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST)
        a = run_tree_simulation(small_tree(), 3, config=plain, seed=5, prune=False)
        b = run_tree_simulation(small_tree(), 3, config=plain, seed=5, prune=False)
        assert a.messages_by_kind["heartbeats"] == 0
        assert (a.makespan, a.total_bytes_sent) == (b.makespan, b.total_bytes_sent)


class TestChurnObservability:
    """Delta sizes and eviction latencies land in registry histograms."""

    def _run_with_metrics(self, *, churn_events, seed=3):
        result = run_tree_simulation(
            small_tree(),
            4,
            config=fd_config(),
            seed=seed,
            prune=False,
            telemetry=TelemetryConfig(trace=False, metrics=True),
            churn_events=churn_events,
            churn_mode="restart",
        )
        assert result.telemetry is not None and result.telemetry.metrics is not None
        return result.telemetry.metrics

    def test_delta_bytes_and_eviction_latency_histograms(self):
        metrics = self._run_with_metrics(
            churn_events=[(0.3, "worker-02", "leave")]
        )
        snapshot = metrics.snapshot()["histograms"]
        delta = snapshot["gossip_delta_bytes"]
        assert delta["count"] > 0
        assert delta["bounds"] == list(DELTA_BYTES_BUCKETS)
        assert sum(delta["counts"]) == delta["count"]
        latency = snapshot["fd_eviction_latency_seconds"]
        assert latency["count"] >= 1
        # Eviction latency is bounded by the detector's timeouts: at least
        # fail_timeout of staleness, and within cleanup + one heartbeat.
        config = fd_config()
        assert latency["sum"] / latency["count"] >= config.fd_fail_timeout
        per_eviction_cap = config.fd_cleanup_timeout + 2 * config.fd_heartbeat_interval
        assert latency["sum"] <= latency["count"] * per_eviction_cap

    def test_histogram_snapshot_merge_roundtrip(self):
        metrics = self._run_with_metrics(
            churn_events=[(0.3, "worker-02", "leave"), (1.6, "worker-02", "return")]
        )
        snapshot = metrics.snapshot()
        base = snapshot["histograms"]["gossip_delta_bytes"]

        merged = MetricsRegistry.from_snapshot(snapshot)
        merged.merge_snapshot(snapshot)
        doubled = merged.snapshot()["histograms"]["gossip_delta_bytes"]
        assert doubled["count"] == 2 * base["count"]
        assert doubled["sum"] == pytest.approx(2 * base["sum"])
        assert doubled["counts"] == [2 * c for c in base["counts"]]

        # Mismatched bucket layouts must be rejected, not silently merged.
        other = MetricsRegistry()
        other.histogram("gossip_delta_bytes", buckets=(1, 2, 3)).observe(2)
        with pytest.raises(ValueError):
            other.merge_snapshot(snapshot)


class TestCoarseGrainLiveness:
    """Coarse grain paces the starved-worker table push by node cost, well
    above the idle poll.  Outcomes must not depend on that cadence: under
    loss, a permanent crash and a restart-mode rejoin, every survivor still
    detects termination with the optimum and the rejoiner still converges
    through delta first contact.  Speed is deliberately not asserted —
    coarse grain under loss redoes a lot of work at any cadence."""

    NODE_COST = 1.0
    N_WORKERS = 16

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_crash_loss_and_rejoin_still_terminate_with_the_optimum(self, seed):
        cost = self.NODE_COST
        tree = generate_random_tree(
            RandomTreeSpec(
                nodes=151, mean_node_time=cost, seed=200 + seed, name="coarse-tree"
            )
        )
        result = run_tree_simulation(
            tree,
            self.N_WORKERS,
            config=AlgorithmConfig(failure_detector=True, termination_echo=True),
            network=NetworkConfig(loss_probability=0.05),
            seed=seed,
            prune=False,
            compute_uniprocessor_time=False,
            failures=[CrashEvent(15.0 * cost, "worker-05")],
            churn_events=[
                (5.0 * cost, "worker-02", "leave"),
                (12.0 * cost, "worker-02", "return"),
            ],
            churn_mode="restart",
        )
        assert result.solved_correctly
        assert result.crashed_workers == ["worker-05"]
        assert result.workers["worker-05"].crashed_at < result.makespan
        optimum = tree.optimal_value()
        for name, stats in result.workers.items():
            if name == "worker-05":
                continue
            assert stats.terminated, name
            assert stats.best_value == pytest.approx(optimum), name
        rejoiner = result.workers["worker-02"]
        assert rejoiner.leaves == 1 and rejoiner.rejoins == 1
        # The rejoiner came back blank and was caught up by deltas alone.
        assert sum(s.table_gossips_sent for s in result.workers.values()) == 0
        assert result.bytes_by_kind.get("table_gossip", 0) == 0
        assert result.bytes_by_kind.get("delta_gossip", 0) > 0
