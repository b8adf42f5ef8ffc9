"""Cross-backend parity: one seeded scenario, every backend, one answer.

The acceptance bar of the unified Scenario API: the same frozen
:class:`~repro.scenario.spec.Scenario` runs unmodified on all four backends
and returns a :class:`~repro.scenario.result.ScenarioResult` with an
identical schema; the three simulated backends agree on the optimal solution
value and terminate; the realexec backend runs the quickstart scenario on
real processes over TCP, where the row also checks the head-count (every
worker reported) and the work it took (nobody redid the tree), plus a
16-worker teardown stress and a 16-worker work bound.  The ``rolling-upgrade`` tree (named for the
retired scenario that ran it) is a recovery sensor: a seeded simulated row
bounds the recoveries a quiet, healthy group starts, and a realexec row runs
the same shape on real processes.
"""

import sys

import pytest

from repro.scenario import (
    AvailabilitySpec,
    ChurnSpec,
    FailureSpec,
    Scenario,
    ScenarioResult,
    WorkloadSpec,
    compare_backends,
    get_scenario,
    run_scenario,
)

SIMULATED_BACKENDS = ("simulated", "central", "dib")

#: The shared parity workload: small enough that every backend is quick,
#: big enough that load balancing and reporting actually happen.
PARITY = Scenario(
    name="parity",
    workload=WorkloadSpec(kind="random", nodes=81, mean_node_time=0.005, seed=23),
    n_workers=3,
    seed=5,
)

#: The rolling-upgrade tree: 121 nodes of 5 ms on 4 workers, no faults.
#: Every recovery on it is a quiet group reading its own silence as loss.
ROLLING_UPGRADE_TREE = Scenario(
    name="rolling-upgrade-tree",
    workload=WorkloadSpec(kind="random", nodes=121, mean_node_time=0.005, seed=31),
    n_workers=4,
    seed=31,
    max_seconds=40.0,
)


class TestSimulatedBackendParity:
    @pytest.fixture(scope="class")
    def results(self):
        return compare_backends(PARITY, SIMULATED_BACKENDS)

    def test_all_terminate(self, results):
        for name, result in results.items():
            assert result.terminated, f"{name} did not terminate"

    def test_all_agree_on_the_optimum(self, results):
        optimum = PARITY.build_tree().optimal_value()
        for name, result in results.items():
            assert result.solved_correctly, f"{name} missed the optimum"
            assert result.best_value == pytest.approx(optimum), name
        values = {round(r.best_value, 9) for r in results.values()}
        assert len(values) == 1

    def test_identical_result_schema(self, results):
        shapes = {name: tuple(sorted(result.summary())) for name, result in results.items()}
        assert len(set(shapes.values())) == 1, shapes
        for result in results.values():
            assert isinstance(result, ScenarioResult)
            assert result.n_workers == PARITY.n_workers
            assert result.bytes_total > 0 and result.messages_total > 0
            assert sum(result.bytes_by_kind.values()) == result.bytes_total

    def test_per_worker_stats_cover_all_workers(self, results):
        for name, result in results.items():
            assert len(result.workers) == PARITY.n_workers, name
            assert sum(w.nodes_expanded for w in result.workers.values()) == (
                result.total_nodes_expanded
            ), name


class TestRollingUpgradeTree:
    """The recovery sensor: run seeds 31-46 of the rolling-upgrade tree on
    the simulator.  Nothing fails, so every recovery there is needless; the
    bound is the count when the scenario was retired (per seed
    0,1,1,2,0,1,0,2,2,1,3,3,3,3,1,2), and recovery-on-evidence work
    tightens it."""

    def test_recoveries_over_seeds_31_to_46(self):
        recoveries = []
        for seed in range(31, 47):
            result = run_scenario(ROLLING_UPGRADE_TREE.with_overrides(seed=seed), "simulated")
            assert result.terminated and result.solved_correctly, seed
            recoveries.append(result.recoveries)
        assert sum(recoveries) <= 25, recoveries


class TestCrashParity:
    """A worker crash (not the critical node) is survivable on every design."""

    @pytest.fixture(scope="class")
    def results(self):
        scenario = PARITY.with_overrides(
            name="parity-crash",
            n_workers=4,
            failures=(FailureSpec(victims=(2,), at_fraction=0.4),),
        )
        return compare_backends(scenario, SIMULATED_BACKENDS)

    def test_all_survive_and_solve(self, results):
        for name, result in results.items():
            assert result.terminated, f"{name} did not survive the crash"
            assert result.solved_correctly, name
            assert len(result.crashed_workers) == 1, name

    def test_fault_tolerance_counters_engage(self, results):
        # Each design recovers differently (complement / reassignment /
        # redo), but the normalised counter must register the recovery work.
        engaged = {name: result.recoveries for name, result in results.items()}
        assert any(count > 0 for count in engaged.values()), engaged


class TestCriticalNodeAsymmetry:
    """The paper's headline claim, expressed as one scenario override."""

    def test_only_the_paper_mechanism_survives_critical_crash(self):
        from repro.scenario import CRITICAL

        scenario = PARITY.with_overrides(
            name="parity-critical",
            failures=(FailureSpec(victims=(CRITICAL,), at_fraction=0.4),),
        )
        results = compare_backends(scenario, SIMULATED_BACKENDS)
        assert results["simulated"].terminated and results["simulated"].solved_correctly
        assert not results["central"].terminated
        assert not results["dib"].terminated


#: The churn parity workload: long enough that the churn windows land well
#: inside the run on every backend.
CHURN_PARITY = Scenario(
    name="churn-parity",
    workload=WorkloadSpec(kind="random", nodes=201, mean_node_time=0.02, seed=23),
    n_workers=4,
    seed=5,
)

#: Seeded churn processes: a blip (leave and return), a permanent departure,
#: and a distribution-driven process with an explicit horizon.
CHURN_CASES = {
    "blip": ChurnSpec(
        availability=(AvailabilitySpec(worker=2, down=((0.3, 1.0),)),)
    ),
    "depart": ChurnSpec(
        availability=(AvailabilitySpec(worker=1, down=((0.4, float("inf")),)),)
    ),
    "drawn": ChurnSpec(
        mean_uptime=2.0, mean_downtime=0.3, start_after=0.4, horizon=2.5
    ),
}


class TestChurnParity:
    """Seeded churn matrix: every backend still reports the true optimum.

    ``simulated`` honours the full leave/return process (live failure
    detection, rejoin through gossip first contact); ``central`` and ``dib``
    have no rejoin path, so each churned worker's first leave becomes a
    permanent crash there — under either interpretation the reported
    optimum must equal the failure-free optimum and the run must terminate.
    """

    @pytest.mark.parametrize("case", sorted(CHURN_CASES))
    @pytest.mark.parametrize("seed", [5, 17])
    def test_churn_matrix_agrees_on_the_optimum(self, case, seed):
        scenario = CHURN_PARITY.with_overrides(
            name=f"churn-parity-{case}-{seed}", seed=seed, churn=CHURN_CASES[case]
        )
        optimum = scenario.build_tree().optimal_value()
        results = compare_backends(scenario, SIMULATED_BACKENDS)
        for name, result in results.items():
            assert result.terminated, f"{name} did not survive churn ({case})"
            assert result.solved_correctly, f"{name} missed the optimum ({case})"
            assert result.best_value == pytest.approx(optimum), (name, case)

    def test_churn_summary_schema_is_uniform(self):
        scenario = CHURN_PARITY.with_overrides(churn=CHURN_CASES["blip"])
        results = compare_backends(scenario, SIMULATED_BACKENDS)
        shapes = {tuple(sorted(r.summary())) for r in results.values()}
        assert len(shapes) == 1
        # Only the simulated backend has a rejoin path; the blip registers.
        assert results["simulated"].rejoins == 1
        assert results["simulated"].unavailable_time == pytest.approx(0.7)


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX multiprocessing only")
class TestRealexecSmoke:
    """The quickstart scenario on real processes."""

    def test_quickstart_scenario_runs(self):
        # ``node_sleep`` makes the run long enough (~0.4 s) that the tree is
        # actually shared — and that a link which starves busy workers of
        # their traffic would show up as everybody redoing everything.
        scenario = get_scenario("quickstart").with_overrides(
            failures=(), max_seconds=40.0, node_sleep=0.005
        )
        tree_nodes = len(scenario.build_tree())
        result = run_scenario(scenario, backend="realexec")
        assert result.backend == "realexec"
        assert result.terminated
        assert result.solved_correctly
        assert result.bytes_total > 0
        assert sum(result.bytes_by_kind.values()) == result.bytes_total
        # Head-count and work, not just optimum + termination.
        assert result.raw.missing_outcomes == []
        assert len(result.raw.outcomes) == scenario.n_workers
        assert result.total_nodes_expanded <= 1.5 * tree_nodes
        assert max(w.nodes_expanded for w in result.workers.values()) < tree_nodes

    def test_sixteen_worker_stress_collects_every_outcome(self):
        """Workers that share a small tree finish within milliseconds of
        each other while peers still send them reports and acks — the
        teardown race that used to lose outcomes.  Every rep must collect
        16/16 outcomes, each holding the optimum."""
        for rep in range(5):
            scenario = Scenario(
                name=f"realexec-stress-{rep}",
                workload=WorkloadSpec(kind="random", nodes=61, mean_node_time=0.005, seed=23),
                n_workers=16,
                seed=rep,
                node_sleep=0.005,
                max_seconds=30.0,
            )
            result = run_scenario(scenario, backend="realexec")
            assert result.raw.missing_outcomes == [], rep
            assert len(result.raw.outcomes) == 16, rep
            assert result.terminated, rep
            for name, outcome in result.raw.outcomes.items():
                assert outcome.best_value == pytest.approx(
                    result.reference_optimum
                ), (rep, name)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sixteen_tcp_workers_do_not_redo_the_tree(self, seed):
        """16 real workers on the Figure 3 tree at a tenth of its size: the
        blank-worker gate and the stall rule keep starved workers from
        regenerating the root during ramp-up, which redid the tree 1.7–4.7
        times (12 seeds).  Under the shared pacing rules 30 seeds read
        1.16–1.70 (median 1.33): loss is still suspected after three node
        costs without news, while idle peers push news only every 0.1 s,
        so the bound leaves room for that tail."""
        scenario = Scenario(
            name=f"realexec-16w-tcp-{seed}",
            workload=WorkloadSpec(kind="figure3", scale=0.1, seed=7),
            n_workers=16,
            seed=seed,
            node_sleep=0.01,
            max_seconds=30.0,
        )
        tree_nodes = len(scenario.build_tree())
        result = run_scenario(scenario, backend="realexec")
        assert result.raw.missing_outcomes == [], seed
        assert len(result.raw.outcomes) == 16, seed
        for name, outcome in result.raw.outcomes.items():
            assert outcome.best_value == pytest.approx(result.reference_optimum), (seed, name)
        # A load-sensitive row: the message carries what a failure needs to
        # be read after the fact, since a real run cannot be replayed.
        per_worker = ", ".join(
            f"{name}: {o.nodes_expanded} expanded / {o.recoveries} recoveries"
            for name, o in sorted(result.raw.outcomes.items())
        )
        assert result.total_nodes_expanded <= 2.0 * tree_nodes, (
            f"seed {seed}: expansions / tree = "
            f"{result.total_nodes_expanded / tree_nodes:.2f}, "
            f"makespan {result.makespan:.3f} s; {per_worker}"
        )

    def test_realexec_summary_schema_matches_simulated(self):
        real = run_scenario(
            get_scenario("quickstart").with_overrides(failures=()), backend="realexec"
        )
        sim = run_scenario(PARITY, backend="simulated")
        assert sorted(real.summary()) == sorted(sim.summary())

    def test_rolling_upgrade_scenario_on_realexec(self):
        result = run_scenario(ROLLING_UPGRADE_TREE, backend="realexec")
        assert result.terminated and result.solved_correctly
        assert result.raw.n_workers == 4


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX signals only")
class TestRealexecChurnSmoke:
    """Kill+rejoin on real OS processes.

    One worker is killed mid-run and respawned fresh (``has_root=False``)
    shortly after; ``node_sleep`` stretches the run so the churn window
    lands while everyone is still working.  The rejoined process must
    re-converge through the gossip first-contact path and terminate with
    the survivors on the true optimum.
    """

    def test_kill_and_rejoin(self):
        scenario = Scenario(
            name="realexec-churn",
            workload=WorkloadSpec(kind="random", nodes=121, mean_node_time=0.005, seed=31),
            n_workers=4,
            seed=31,
            node_sleep=0.02,
            max_seconds=60.0,
            churn=ChurnSpec(
                availability=(AvailabilitySpec(worker=2, down=((0.25, 0.6),)),),
                mode="restart",
            ),
        )
        result = run_scenario(scenario, backend="realexec")
        assert result.raw.rejoined == ["rworker-02"]
        assert result.raw.churned_out == []
        assert result.crashed_workers == ()
        assert result.rejoins == 1
        assert result.unavailable_time > 0.0
        assert result.terminated, "rejoined worker (or a survivor) never terminated"
        assert result.solved_correctly
        # The rejoined incarnation reported an outcome like any survivor.
        assert "rworker-02" in result.raw.outcomes
