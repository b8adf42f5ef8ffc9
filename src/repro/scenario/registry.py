"""Named paper scenarios: the experiments of the paper as registry entries.

Each entry is a ready-to-run :class:`~repro.scenario.spec.Scenario`; the CLI
(``python -m repro run <name>``) and the examples look them up here, and
sweeps derive variants with :meth:`~repro.scenario.spec.Scenario.
with_overrides`.  Registering a scenario is one call — a new experiment is a
config diff, not a new runner.
"""

from __future__ import annotations

from typing import Dict, List

from ..distributed.runner import NetworkConfig
from ..simulation.network import Partition
from .spec import AvailabilitySpec, ChurnSpec, FailureSpec, Scenario, WorkloadSpec

__all__ = ["register_scenario", "get_scenario", "list_scenarios", "scenario_names"]

_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Register a named scenario (replacing any previous one)."""
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r} (registered: {', '.join(sorted(_REGISTRY))})"
        ) from None


def list_scenarios() -> List[Scenario]:
    """Every registered scenario, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def scenario_names() -> List[str]:
    """Names of every registered scenario."""
    return sorted(_REGISTRY)


# --------------------------------------------------------------------------- #
# The paper scenarios
# --------------------------------------------------------------------------- #
register_scenario(
    Scenario(
        name="quickstart",
        description=(
            "Figures 5/6 in miniature: the tiny workload on three workers, "
            "two of which crash at 85% of the failure-free execution time"
        ),
        workload=WorkloadSpec(kind="tiny", seed=7),
        n_workers=3,
        seed=1,
        failures=(FailureSpec(victims=(1, 2), at_fraction=0.85, after_seconds=0.15),),
    )
)

register_scenario(
    Scenario(
        name="figure3",
        description=(
            "The Figure 3 workload (~3,500 nodes at 0.01 s/node, scaled to "
            "25% by default) on eight workers, failure-free, with the "
            "sequential reference measured for the speedup column"
        ),
        workload=WorkloadSpec(kind="figure3", scale=0.25, seed=7),
        n_workers=8,
        seed=7,
        compute_uniprocessor_time=True,
    )
)

register_scenario(
    Scenario(
        name="crash-storm",
        description=(
            "Half of six workers crash simultaneously at 50% of the "
            "failure-free makespan — the survivors must recover the lost "
            "subtrees and still terminate on the optimum"
        ),
        workload=WorkloadSpec(kind="random", nodes=401, mean_node_time=0.02, seed=5),
        n_workers=6,
        seed=3,
        failures=(FailureSpec(victims=(1, 2, 3), at_fraction=0.5, after_seconds=0.25),),
    )
)

register_scenario(
    Scenario(
        name="campus-churn",
        description=(
            "The paper's campus-network deployment in miniature: five "
            "heterogeneous desktops (speed multipliers 0.6-1.4×) churn with "
            "exponential up/down times; departures are detected by the live "
            "heartbeat failure detector, returners re-converge through "
            "gossip first contact, and the group still terminates on the "
            "optimum"
        ),
        workload=WorkloadSpec(kind="random", nodes=301, mean_node_time=0.01, seed=13),
        n_workers=5,
        seed=13,
        churn=ChurnSpec(
            availability=(AvailabilitySpec(worker=4, down=((1.0, 2.0),)),),
            mean_uptime=2.0,
            mean_downtime=0.4,
            start_after=0.5,
            horizon=6.0,
            speed_range=(0.6, 1.4),
        ),
    )
)

register_scenario(
    Scenario(
        name="late-joiner",
        description=(
            "Dynamic membership: worker-03 is partitioned away for the first "
            "second (it effectively joins late, knowing nothing), then heals "
            "and catches up via work reports and first-contact table deltas"
        ),
        workload=WorkloadSpec(kind="tiny", seed=7),
        n_workers=4,
        seed=11,
        network=NetworkConfig(
            partitions=(
                Partition(
                    start=0.0,
                    end=1.0,
                    group_a=frozenset({"worker-03"}),
                    group_b=frozenset({"worker-00", "worker-01", "worker-02"}),
                ),
            )
        ),
    )
)
