"""The unified Scenario API: one declarative entry point for every backend.

Where the repo historically exposed four divergent runners (the simulated
tree run, the central and DIB baselines and the real-process cluster) with
incompatible configurations and result types, this package is the single
experiment-facing surface:

* :class:`Scenario` — a frozen, backend-agnostic experiment description
  (workload, workers, network, failure schedule, algorithm config,
  seed);
* :class:`Backend` — the protocol the four registered implementations
  (``simulated``, ``central``, ``dib``, ``realexec``) satisfy;
* :class:`ScenarioResult` — the one normalised result shape (solution,
  termination, per-kind byte accounting, recovery/crash counters,
  per-worker stats) the analysis layer consumes;
* a registry of named paper scenarios (``quickstart``, ``figure3``,
  ``crash-storm``, ``late-joiner``, ``campus-churn``) behind the
  ``python -m repro`` CLI.

Quickstart::

    from repro.scenario import get_scenario, run_scenario

    result = run_scenario(get_scenario("quickstart"), backend="simulated")
    assert result.terminated and result.solved_correctly

Field reference, backend matrix and CLI usage: ``docs/SCENARIOS.md``.
"""

from .backends import (
    Backend,
    BaselineBackend,
    RealexecBackend,
    SimulatedBackend,
    backend_names,
    compare_backends,
    get_backend,
    register_backend,
    run_scenario,
)
from .registry import get_scenario, list_scenarios, register_scenario, scenario_names
from .result import ScenarioResult, WorkerSummary, format_comparison
from .spec import (
    CRITICAL,
    AvailabilitySpec,
    ChurnSpec,
    FailureSpec,
    Scenario,
    TelemetryConfig,
    WorkloadSpec,
)

__all__ = [
    "Scenario",
    "WorkloadSpec",
    "FailureSpec",
    "AvailabilitySpec",
    "ChurnSpec",
    "TelemetryConfig",
    "CRITICAL",
    "ScenarioResult",
    "WorkerSummary",
    "format_comparison",
    "Backend",
    "SimulatedBackend",
    "BaselineBackend",
    "RealexecBackend",
    "register_backend",
    "get_backend",
    "backend_names",
    "run_scenario",
    "compare_backends",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
]
