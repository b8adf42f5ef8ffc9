"""Unit tests for the declarative Scenario API (spec, registry, CLI)."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bnb.random_tree import RandomTreeSpec, generate_random_tree
from repro.distributed import AlgorithmConfig
from repro.scenario import (
    CRITICAL,
    FailureSpec,
    Scenario,
    WorkloadSpec,
    backend_names,
    get_backend,
    get_scenario,
    list_scenarios,
    run_scenario,
    scenario_names,
)
from repro.scenario.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestWorkloadSpec:
    def test_named_paper_workloads_build(self):
        assert len(WorkloadSpec(kind="tiny").build()) == 151
        tree = WorkloadSpec(kind="figure3", scale=0.05).build()
        assert len(tree) >= 101

    def test_random_workload_is_seed_deterministic(self):
        a = WorkloadSpec(kind="random", nodes=61, seed=3).build()
        b = WorkloadSpec(kind="random", nodes=61, seed=3).build()
        assert a.to_dict() == b.to_dict()

    def test_knapsack_workload_records_a_tree(self):
        tree = WorkloadSpec(kind="knapsack", nodes=8, mean_node_time=0.01, seed=1).build()
        assert len(tree) > 1 and tree.optimal_value() is not None

    def test_explicit_tree_workload(self):
        tree = generate_random_tree(RandomTreeSpec(nodes=31, seed=9))
        spec = WorkloadSpec(kind="tree", tree=tree)
        assert spec.build() is tree

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="nope")
        with pytest.raises(ValueError):
            WorkloadSpec(kind="tree")  # no tree given
        with pytest.raises(ValueError):
            WorkloadSpec(nodes=0)


class TestFailureSpec:
    def test_defaults_to_half_fraction(self):
        spec = FailureSpec(victims=(1,))
        assert spec.at_fraction == 0.5 and spec.at_time is None

    def test_time_and_fraction_are_exclusive(self):
        with pytest.raises(ValueError):
            FailureSpec(victims=(0,), at_time=1.0, at_fraction=0.5)

    def test_victims_resolve_to_backend_names(self):
        spec = FailureSpec(victims=(1, "worker-02", CRITICAL, "manager"))
        names = ["cworker-00", "cworker-01", "cworker-02"]
        resolved = spec.resolve_victims(names, critical="manager")
        assert resolved == ["cworker-01", "cworker-02", "manager", "manager"]

    def test_victim_index_out_of_range(self):
        with pytest.raises(ValueError):
            FailureSpec(victims=(7,)).resolve_victims(["a", "b"], critical="a")

    def test_wall_clock_delay_fallbacks(self):
        assert FailureSpec(victims=(0,), after_seconds=0.2).wall_clock_delay() == 0.2
        assert FailureSpec(victims=(0,), at_time=3.0).wall_clock_delay() == 3.0
        assert FailureSpec(victims=(0,)).wall_clock_delay() == 0.5


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(n_workers=0)
        with pytest.raises(ValueError):
            Scenario(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            Scenario(n_workers=3, wire_generations=(1, 2))

    def test_with_overrides_returns_new_frozen_copy(self):
        base = Scenario(n_workers=3)
        bigger = base.with_overrides(n_workers=5, seed=9)
        assert base.n_workers == 3 and bigger.n_workers == 5 and bigger.seed == 9
        with pytest.raises(AttributeError):
            bigger.n_workers = 7  # type: ignore[misc]

    def test_needs_reference_run(self):
        assert not Scenario().needs_reference_run()
        assert Scenario(
            failures=(FailureSpec(victims=(0,), at_fraction=0.3),)
        ).needs_reference_run()
        assert not Scenario(
            failures=(FailureSpec(victims=(0,), at_time=2.0),)
        ).needs_reference_run()

    def test_config_rides_along(self):
        scenario = Scenario(config=AlgorithmConfig(report_threshold=3))
        assert scenario.config.report_threshold == 3


class TestRegistry:
    def test_paper_scenarios_are_registered(self):
        names = scenario_names()
        for expected in ("quickstart", "figure3", "crash-storm", "rolling-upgrade", "late-joiner"):
            assert expected in names
        assert all(s.description for s in list_scenarios())

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("does-not-exist")


class TestBackendRegistry:
    def test_four_backends_registered(self):
        assert backend_names() == ["central", "dib", "realexec", "simulated"]

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_backend("quantum")
        with pytest.raises(KeyError):
            run_scenario(Scenario(), backend="quantum")


class TestResultSchema:
    @pytest.fixture(scope="class")
    def result(self):
        scenario = Scenario(
            name="schema-check",
            workload=WorkloadSpec(kind="random", nodes=41, mean_node_time=0.002, seed=2),
            n_workers=2,
            seed=4,
        )
        return run_scenario(scenario, backend="simulated")

    def test_summary_and_row_shapes(self, result):
        summary = result.summary()
        assert summary["backend"] == "simulated" and summary["terminated"]
        row = result.as_row()
        assert set(row) == {
            "backend", "workers", "makespan_s", "speedup", "nodes",
            "recoveries", "crashed", "terminated", "correct",
        }

    def test_worker_summaries_normalised(self, result):
        assert set(result.workers) == {"worker-00", "worker-01"}
        for worker in result.workers.values():
            assert worker.as_dict()["terminated"] is True

    def test_report_renders(self, result):
        text = result.report()
        assert "schema-check" in text and "solved_correctly" in text

    def test_raw_result_is_preserved(self, result):
        from repro.distributed.stats import RunResult

        assert isinstance(result.raw, RunResult)


class TestRealexecResultMapping:
    """``RealexecBackend`` maps a ``LocalClusterResult`` without running one."""

    @staticmethod
    def _run_with_outcomes(monkeypatch, expansions, **result_fields):
        from repro.realexec.driver import LocalCluster, LocalClusterResult
        from repro.realexec.node import WorkerOutcome

        scenario = Scenario(
            name="mapping",
            workload=WorkloadSpec(kind="random", nodes=41, mean_node_time=0.0, seed=2),
            n_workers=len(expansions),
        )
        tree = scenario.build_tree()

        def fake_run(self, **_kwargs):
            outcomes = {
                name: WorkerOutcome(
                    name=name, terminated=True, best_value=tree.optimal_value(),
                    nodes_expanded=count, reports_sent=1, recoveries=0,
                )
                for name, count in zip(self.names, expansions)
                if count is not None
            }
            return LocalClusterResult(
                n_workers=self.n_workers, outcomes=outcomes,
                reference_optimum=tree.optimal_value(), **result_fields,
            )

        monkeypatch.setattr(LocalCluster, "run", fake_run)
        return len(tree), run_scenario(scenario, backend="realexec")

    def test_redundant_work_is_the_excess_over_the_tree(self, monkeypatch):
        nodes, result = self._run_with_outcomes(monkeypatch, [41, 41, 20])
        assert result.total_nodes_expanded == 102
        assert result.redundant_nodes_expanded == 102 - nodes
        assert result.redundant_work_fraction() == pytest.approx((102 - nodes) / 102)

    def test_pruned_run_has_no_negative_redundancy(self, monkeypatch):
        _nodes, result = self._run_with_outcomes(monkeypatch, [10, 12])
        assert result.redundant_nodes_expanded == 0
        assert result.redundant_work_fraction() == 0.0

    def test_missing_outcome_is_not_termination(self, monkeypatch):
        _nodes, result = self._run_with_outcomes(
            monkeypatch, [20, 21, None], missing_outcomes=["rworker-02"]
        )
        assert not result.terminated


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli_main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out and "figure3" in out

    def test_run_with_overrides(self, capsys):
        code = cli_main(
            ["run", "quickstart", "--backend", "simulated", "--workers", "2", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"solved_correctly\s*: yes", out)

    def test_compare_small(self, capsys):
        code = cli_main(
            ["compare", "quickstart", "--backends", "simulated,dib", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated" in out and "dib" in out

    def test_unknown_scenario_exit_code(self, capsys):
        assert cli_main(["run", "no-such-scenario"]) == 2

    def test_module_entry_point_figure3(self):
        """The acceptance-criterion invocation, scaled down for test speed."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "figure3", "--backend", "simulated",
             "--scale", "0.2", "--workers", "4"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"solved_correctly\s*: yes", proc.stdout)
        assert "speedup" in proc.stdout


class TestCliShrinkOverrides:
    def test_shrinking_workers_reports_dropped_semantics(self, capsys):
        # late-joiner partitions worker-03 away; at --workers 2 neither the
        # partition nor any failure victims survive, and the CLI says so.
        code = cli_main(["run", "late-joiner", "--workers", "2"])
        assert code == 0
        captured = capsys.readouterr()
        # The shrink note goes through the repro.* logger (stderr), not stdout.
        assert "failure semantics changed" in captured.err
        assert re.search(r"solved_correctly\s*: yes", captured.out)


class TestReviewRegressions:
    def test_out_of_range_canonical_victim_raises(self):
        spec = FailureSpec(victims=("worker-07",))
        with pytest.raises(ValueError):
            spec.resolve_victims(["w0", "w1", "w2"], critical="w0")
        # Non-canonical strings still pass through (backend-specific nodes).
        assert FailureSpec(victims=("manager",)).resolve_victims(
            ["w0"], critical="w0"
        ) == ["manager"]

    def test_scale_honoured_by_tiny_and_knapsack(self):
        full = WorkloadSpec(kind="tiny").build()
        small = WorkloadSpec(kind="tiny", scale=0.3).build()
        assert len(small) < len(full)
        big_items = WorkloadSpec(kind="knapsack", nodes=10, seed=1).build()
        few_items = WorkloadSpec(kind="knapsack", nodes=10, scale=0.5, seed=1).build()
        assert len(few_items) < len(big_items)

    def test_unused_uds_router_leaves_no_socket_dir(self, tmp_path, monkeypatch):
        import tempfile as _tempfile

        from repro.realexec.transport import create_router

        monkeypatch.setattr(_tempfile, "tempdir", str(tmp_path))
        router = create_router("uds")
        assert list(tmp_path.iterdir()) == []  # nothing created yet
        router.add_worker("a")  # endpoint creation materialises the socket dir
        assert len(list(tmp_path.iterdir())) == 1
        router.stop()
        assert list(tmp_path.iterdir()) == []

    def test_partition_naming_missing_worker_raises(self):
        from repro.distributed import NetworkConfig
        from repro.simulation.network import Partition

        scenario = Scenario(
            workload=WorkloadSpec(kind="random", nodes=21, mean_node_time=0.001, seed=1),
            n_workers=2,
            network=NetworkConfig(
                partitions=(
                    Partition(
                        start=0.0,
                        end=1.0,
                        group_a=frozenset({"worker-05"}),
                        group_b=frozenset({"worker-00"}),
                    ),
                )
            ),
        )
        with pytest.raises(ValueError):
            run_scenario(scenario, backend="simulated")
        with pytest.raises(ValueError):
            run_scenario(scenario, backend="dib")
