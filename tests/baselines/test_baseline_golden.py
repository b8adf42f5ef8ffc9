"""Golden runs of the two baselines: four seeded scenarios pinned value for value.

The centralised manager/worker design and the DIB-style design run on the
same simulation substrate as the paper's mechanism.  A refactor of their
runner, entities or Scenario backend that means to change nothing must
leave these runs exactly as they were: the makespan, the best value, the
termination flag, who crashed, the work done (and the part of it that was
redundant), the recoveries, the messages and bytes by kind, and each
worker's expansions, recoveries and crash/termination flags.  Floats
compare at 1e-9 relative, everything else exactly.

The four scenarios, each run on ``central`` and on ``dib``:

* ``failure-free`` — a 201-node random tree on four workers;
* ``crash-storm`` — the registered scenario: half of six workers crash at
  50 % of the failure-free makespan, so the failure times resolve through
  the backend's failure-free reference run;
* ``critical-crash`` — the backend's critical node (the central manager,
  the DIB root machine) crashes mid-run, so neither design terminates;
* ``lossy-churn`` — 5 % message loss, a partition that cuts one worker off
  for a while, and restart churn, whose first leave becomes a permanent
  crash on these crash-only backends.

A change that alters behaviour on purpose re-records the values (run this
file as a script from the repository root with ``PYTHONPATH=src`` and paste
its output over the ``GOLDEN`` assignment) and says so in its change notes.
"""

import json
import math

import pytest

from repro.distributed.runner import NetworkConfig
from repro.scenario import (
    CRITICAL,
    AvailabilitySpec,
    ChurnSpec,
    FailureSpec,
    Scenario,
    WorkloadSpec,
    get_scenario,
    run_scenario,
)
from repro.simulation.network import Partition

_WORKLOAD = WorkloadSpec(kind="random", nodes=201, mean_node_time=0.02, seed=9)

SCENARIOS = {
    "failure-free": Scenario(
        name="golden-failure-free", workload=_WORKLOAD, n_workers=4, seed=5
    ),
    "crash-storm": get_scenario("crash-storm"),
    "critical-crash": Scenario(
        name="golden-critical-crash",
        workload=_WORKLOAD,
        n_workers=4,
        seed=5,
        failures=(FailureSpec(victims=(CRITICAL,), at_time=0.5),),
        max_sim_time=20.0,
    ),
    "lossy-churn": Scenario(
        name="golden-lossy-churn",
        workload=_WORKLOAD,
        n_workers=5,
        seed=11,
        network=NetworkConfig(
            loss_probability=0.05,
            partitions=(
                Partition(
                    start=0.2,
                    end=0.6,
                    group_a=frozenset({"worker-04"}),
                    group_b=frozenset({"worker-00", "worker-01", "worker-02", "worker-03"}),
                ),
            ),
        ),
        churn=ChurnSpec(
            availability=(
                AvailabilitySpec(worker=2, down=((0.3, 0.6), (0.9, 1.1))),
                AvailabilitySpec(worker=3, down=((0.7, 0.9),)),
            ),
            mode="restart",
        ),
    ),
}

BACKENDS = ("central", "dib")


def observe(scenario: Scenario, backend: str) -> dict:
    """The pinned quantities of one run, as plain Python values."""
    result = run_scenario(scenario, backend=backend)
    return {
        "makespan": result.makespan,
        "best_value": result.best_value,
        "terminated": result.terminated,
        "crashed_workers": list(result.crashed_workers),
        "total_nodes_expanded": result.total_nodes_expanded,
        "redundant_nodes_expanded": result.redundant_nodes_expanded,
        "recoveries": result.recoveries,
        "messages_total": result.messages_total,
        "bytes_total": result.bytes_total,
        "bytes_by_kind": dict(sorted(result.bytes_by_kind.items())),
        "workers": {
            name: {
                "nodes_expanded": worker.nodes_expanded,
                "recoveries": worker.recoveries,
                "crashed": worker.crashed,
                "terminated": worker.terminated,
            }
            for name, worker in sorted(result.workers.items())
        },
    }


def assert_matches(observed, golden, path="run"):
    """Equal structure; floats within 1e-9 relative, everything else exact."""
    if isinstance(golden, dict):
        assert isinstance(observed, dict), path
        assert sorted(observed) == sorted(golden), path
        for key in golden:
            assert_matches(observed[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, float):
        assert isinstance(observed, float), path
        assert math.isclose(observed, golden, rel_tol=1e-9, abs_tol=1e-12), (
            f"{path}: {observed!r} != {golden!r}"
        )
    else:
        assert observed == golden, f"{path}: {observed!r} != {golden!r}"


GOLDEN = {
    "central": {
        "crash-storm": {
            "makespan": 4.29206183809255,
            "best_value": 106.9062835334598,
            "terminated": True,
            "crashed_workers": [
                "cworker-01",
                "cworker-02",
                "cworker-03"
            ],
            "total_nodes_expanded": 401,
            "redundant_nodes_expanded": 0,
            "recoveries": 3,
            "messages_total": 1279,
            "bytes_total": 77735,
            "bytes_by_kind": {
                "no_work": 1216,
                "task_assignment": 26767,
                "task_request": 13952,
                "task_result": 35800
            },
            "workers": {
                "cworker-00": {
                    "nodes_expanded": 119,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-01": {
                    "nodes_expanded": 19,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "cworker-02": {
                    "nodes_expanded": 29,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "cworker-03": {
                    "nodes_expanded": 24,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "cworker-04": {
                    "nodes_expanded": 106,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-05": {
                    "nodes_expanded": 104,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                }
            }
        },
        "critical-crash": {
            "makespan": 20.0,
            "best_value": None,
            "terminated": False,
            "crashed_workers": [
                "manager"
            ],
            "total_nodes_expanded": 37,
            "redundant_nodes_expanded": 0,
            "recoveries": 0,
            "messages_total": 203,
            "bytes_total": 8710,
            "bytes_by_kind": {
                "no_work": 192,
                "task_assignment": 2012,
                "task_request": 3936,
                "task_result": 2570
            },
            "workers": {
                "cworker-00": {
                    "nodes_expanded": 15,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-01": {
                    "nodes_expanded": 13,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-02": {
                    "nodes_expanded": 5,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-03": {
                    "nodes_expanded": 4,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                }
            }
        },
        "failure-free": {
            "makespan": 1.729751494754886,
            "best_value": 107.86047898241742,
            "terminated": True,
            "crashed_workers": [],
            "total_nodes_expanded": 201,
            "redundant_nodes_expanded": 0,
            "recoveries": 0,
            "messages_total": 635,
            "bytes_total": 37216,
            "bytes_by_kind": {
                "no_work": 576,
                "task_assignment": 12888,
                "task_request": 6880,
                "task_result": 16872
            },
            "workers": {
                "cworker-00": {
                    "nodes_expanded": 55,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-01": {
                    "nodes_expanded": 57,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-02": {
                    "nodes_expanded": 46,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-03": {
                    "nodes_expanded": 43,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                }
            }
        },
        "lossy-churn": {
            "makespan": 26.046223309173843,
            "best_value": 107.86047898241742,
            "terminated": True,
            "crashed_workers": [
                "cworker-02",
                "cworker-03"
            ],
            "total_nodes_expanded": 221,
            "redundant_nodes_expanded": 20,
            "recoveries": 37,
            "messages_total": 1009,
            "bytes_total": 51678,
            "bytes_by_kind": {
                "no_work": 4736,
                "task_assignment": 15302,
                "task_request": 12864,
                "task_result": 18776
            },
            "workers": {
                "cworker-00": {
                    "nodes_expanded": 40,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-01": {
                    "nodes_expanded": 89,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "cworker-02": {
                    "nodes_expanded": 3,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "cworker-03": {
                    "nodes_expanded": 13,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "cworker-04": {
                    "nodes_expanded": 76,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                }
            }
        }
    },
    "dib": {
        "crash-storm": {
            "makespan": 10.839801018239381,
            "best_value": 106.9062835334598,
            "terminated": True,
            "crashed_workers": [
                "dworker-01",
                "dworker-02",
                "dworker-03"
            ],
            "total_nodes_expanded": 512,
            "redundant_nodes_expanded": 111,
            "recoveries": 4,
            "messages_total": 610,
            "bytes_total": 22037,
            "bytes_by_kind": {
                "completion_report": 2829,
                "termination_announce": 210,
                "work_denied": 7264,
                "work_grant": 2070,
                "work_request": 9664
            },
            "workers": {
                "dworker-00": {
                    "nodes_expanded": 114,
                    "recoveries": 2,
                    "crashed": False,
                    "terminated": True
                },
                "dworker-01": {
                    "nodes_expanded": 85,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "dworker-02": {
                    "nodes_expanded": 85,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "dworker-03": {
                    "nodes_expanded": 75,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "dworker-04": {
                    "nodes_expanded": 64,
                    "recoveries": 1,
                    "crashed": False,
                    "terminated": True
                },
                "dworker-05": {
                    "nodes_expanded": 89,
                    "recoveries": 1,
                    "crashed": False,
                    "terminated": True
                }
            }
        },
        "critical-crash": {
            "makespan": 20.0,
            "best_value": 107.86047898241742,
            "terminated": False,
            "crashed_workers": [
                "dworker-00"
            ],
            "total_nodes_expanded": 211,
            "redundant_nodes_expanded": 10,
            "recoveries": 4,
            "messages_total": 755,
            "bytes_total": 25131,
            "bytes_by_kind": {
                "completion_report": 1290,
                "work_denied": 9216,
                "work_grant": 769,
                "work_request": 13856
            },
            "workers": {
                "dworker-00": {
                    "nodes_expanded": 19,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "dworker-01": {
                    "nodes_expanded": 85,
                    "recoveries": 4,
                    "crashed": False,
                    "terminated": False
                },
                "dworker-02": {
                    "nodes_expanded": 57,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                },
                "dworker-03": {
                    "nodes_expanded": 50,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": False
                }
            }
        },
        "failure-free": {
            "makespan": 30.124926044577848,
            "best_value": 107.86047898241742,
            "terminated": True,
            "crashed_workers": [],
            "total_nodes_expanded": 288,
            "redundant_nodes_expanded": 87,
            "recoveries": 17,
            "messages_total": 1999,
            "bytes_total": 65111,
            "bytes_by_kind": {
                "completion_report": 1075,
                "termination_announce": 126,
                "work_denied": 31040,
                "work_grant": 1254,
                "work_request": 31616
            },
            "workers": {
                "dworker-00": {
                    "nodes_expanded": 90,
                    "recoveries": 8,
                    "crashed": False,
                    "terminated": True
                },
                "dworker-01": {
                    "nodes_expanded": 55,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": True
                },
                "dworker-02": {
                    "nodes_expanded": 97,
                    "recoveries": 9,
                    "crashed": False,
                    "terminated": True
                },
                "dworker-03": {
                    "nodes_expanded": 46,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": True
                }
            }
        },
        "lossy-churn": {
            "makespan": 11.199390612091042,
            "best_value": 107.86047898241742,
            "terminated": True,
            "crashed_workers": [
                "dworker-02",
                "dworker-03"
            ],
            "total_nodes_expanded": 258,
            "redundant_nodes_expanded": 57,
            "recoveries": 6,
            "messages_total": 321,
            "bytes_total": 10710,
            "bytes_by_kind": {
                "completion_report": 521,
                "termination_announce": 168,
                "work_denied": 3168,
                "work_grant": 357,
                "work_request": 6496
            },
            "workers": {
                "dworker-00": {
                    "nodes_expanded": 91,
                    "recoveries": 2,
                    "crashed": False,
                    "terminated": True
                },
                "dworker-01": {
                    "nodes_expanded": 130,
                    "recoveries": 4,
                    "crashed": False,
                    "terminated": True
                },
                "dworker-02": {
                    "nodes_expanded": 0,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "dworker-03": {
                    "nodes_expanded": 0,
                    "recoveries": 0,
                    "crashed": True,
                    "terminated": False
                },
                "dworker-04": {
                    "nodes_expanded": 37,
                    "recoveries": 0,
                    "crashed": False,
                    "terminated": True
                }
            }
        }
    }
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_baseline_run_is_unchanged(name, backend):
    assert_matches(
        observe(SCENARIOS[name], backend), GOLDEN[backend][name], f"{backend}.{name}"
    )


if __name__ == "__main__":
    observed = {
        backend: {name: observe(SCENARIOS[name], backend) for name in sorted(SCENARIOS)}
        for backend in BACKENDS
    }
    print("GOLDEN = " + json.dumps(observed, indent=4))
