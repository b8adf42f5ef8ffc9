"""A finished run frees itself: nothing of it is left in a reference cycle.

Pending events hold closures over the run's entities, every entity holds
the engine and the network, and the network's registry holds every entity.
``DistributedBnBSimulation.run`` and ``run_baseline`` therefore close the
engine and the network once the result is assembled, so a finished run is
freed by reference counting as soon as its caller drops the result, instead
of waiting for a full collection while the next run allocates.

Each test runs one scenario under ``gc.DEBUG_SAVEALL``, drops the result and
collects: every object the collector finds unreachable lands in
``gc.garbage``, and none of them may belong to the run.
"""

import gc

import pytest

from repro.baselines.harness import BaselineEntity
from repro.core.arena import TrieArena
from repro.core.completion import CompletionTracker
from repro.distributed.runner import NetworkConfig
from repro.distributed.worker import WorkerEntity
from repro.scenario import ChurnSpec, FailureSpec, Scenario, WorkloadSpec, run_scenario
from repro.simulation.engine import SimulationEngine
from repro.simulation.network import Network

_RUN_CLASSES = (
    WorkerEntity,
    SimulationEngine,
    Network,
    TrieArena,
    CompletionTracker,
    BaselineEntity,
)

_TREE = WorkloadSpec(kind="random", nodes=301, mean_node_time=0.01, seed=7)

FAILURE_FREE = Scenario(name="lifecycle-clean", workload=_TREE, n_workers=4, seed=1)

#: 5 % loss, one permanent crash and restart churn; the scenario layer turns
#: the failure detector on for churn runs.
FAULTS = Scenario(
    name="lifecycle-faults",
    workload=_TREE,
    n_workers=5,
    seed=1,
    network=NetworkConfig(loss_probability=0.05),
    failures=(FailureSpec(victims=(1,), at_time=0.3),),
    churn=ChurnSpec(
        mean_uptime=0.4, mean_downtime=0.2, start_after=0.1, horizon=1.5, spare=(0, 1)
    ),
)


def _cyclic_leftovers(scenario, backend):
    """Names of the run's objects a collection finds after the result is dropped."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        result = run_scenario(scenario, backend)
        assert result.terminated
        assert result.best_value == result.reference_optimum
        del result
        gc.collect()
        return sorted({type(obj).__name__ for obj in gc.garbage if isinstance(obj, _RUN_CLASSES)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


class TestAFinishedRunFreesItself:
    def test_failure_free_simulated_run(self):
        assert _cyclic_leftovers(FAILURE_FREE, "simulated") == []

    def test_faulty_simulated_run(self):
        result = run_scenario(FAULTS, "simulated")
        # The shape exercises what it names: a crash, churn rejoins, loss.
        assert result.crashed_workers == ("worker-01",)
        assert result.rejoins > 0
        del result
        assert _cyclic_leftovers(FAULTS, "simulated") == []

    @pytest.mark.parametrize("backend", ["central", "dib"])
    @pytest.mark.parametrize("scenario", [FAILURE_FREE, FAULTS], ids=["clean", "faults"])
    def test_baseline_run(self, backend, scenario):
        assert _cyclic_leftovers(scenario, backend) == []
