"""Golden runs: two seeded simulated scenarios pinned value for value.

A refactor of the simulated worker that means to change nothing must leave
these runs exactly as they were: the makespan, each worker's expansions,
redundant expansions, recoveries and Figure-3 time split (where the
simulated per-operation costs show), the bytes and the messages by kind.
Floats compare at 1e-9 relative, integers exactly.

The two runs cover a small ``figure3`` tree (scale 0.1) on six workers:

* ``failure-free`` — the scenario defaults (depth-first, delta gossip);
* ``faults`` — 5 % message loss, one permanent crash and restart churn,
  with the live failure detector on (short timeouts, so it evicts) and
  the termination echo the churn backend adds.

A change that alters behaviour on purpose re-records the values (run this
file as a script from the repository root with ``PYTHONPATH=src`` and paste
its output over the ``GOLDEN`` assignment) and says so in its change notes.
"""

import json
import math

import pytest

from repro.bnb.pool import SelectionRule
from repro.distributed.config import AlgorithmConfig
from repro.distributed.runner import NetworkConfig
from repro.scenario import (
    AvailabilitySpec,
    ChurnSpec,
    FailureSpec,
    Scenario,
    WorkloadSpec,
    run_scenario,
)

_WORKLOAD = WorkloadSpec(kind="figure3", scale=0.1, seed=7)

SCENARIOS = {
    "failure-free": Scenario(name="golden-failure-free", workload=_WORKLOAD, n_workers=6, seed=5),
    "faults": Scenario(
        name="golden-faults",
        workload=_WORKLOAD,
        n_workers=6,
        seed=11,
        config=AlgorithmConfig(
            selection_rule=SelectionRule.DEPTH_FIRST,
            failure_detector=True,
            fd_heartbeat_interval=0.05,
            fd_fail_timeout=0.15,
            fd_cleanup_timeout=0.3,
        ),
        network=NetworkConfig(loss_probability=0.05),
        failures=(FailureSpec(victims=(3,), at_time=0.3),),
        churn=ChurnSpec(
            availability=(AvailabilitySpec(worker=2, down=((0.2, 0.45),)),),
            mode="restart",
        ),
    ),
}


def observe(scenario: Scenario) -> dict:
    """The pinned quantities of one run, as plain Python values."""
    raw = run_scenario(scenario, backend="simulated").raw
    return {
        "makespan": raw.makespan,
        "redundant_nodes_expanded": raw.redundant_nodes_expanded,
        "total_bytes_sent": raw.total_bytes_sent,
        "bytes_by_kind": dict(sorted(raw.bytes_by_kind.items())),
        "messages_by_kind": dict(sorted(raw.messages_by_kind.items())),
        "crashed_workers": list(raw.crashed_workers),
        "workers": {
            name: {
                "nodes_expanded": stats.nodes_expanded,
                "redundant_expansions": stats.redundant_expansions,
                "recovery_activations": stats.recovery_activations,
                "time": dict(sorted(stats.time.items())),
            }
            for name, stats in sorted(raw.workers.items())
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
    "failure-free": {
        "makespan": 0.6923541512455973,
        "redundant_nodes_expanded": 3,
        "total_bytes_sent": 24296,
        "bytes_by_kind": {
            "delta_gossip": 5364,
            "gossip_ack": 1624,
            "root_report": 660,
            "work_denied": 2944,
            "work_grant": 3412,
            "work_report": 5790,
            "work_request": 4502
        },
        "messages_by_kind": {
            "delta_gossips": 36,
            "gossip_acks": 28,
            "heartbeats": 0,
            "root_reports": 15,
            "work_denials": 71,
            "work_forwards": 0,
            "work_grants": 55,
            "work_reports": 78,
            "work_requests": 108
        },
        "crashed_workers": [],
        "workers": {
            "worker-00": {
                "nodes_expanded": 52,
                "redundant_expansions": 0,
                "recovery_activations": 0,
                "time": {
                    "bb": 0.5204969203618851,
                    "communication": 0.0053674000000000005,
                    "contraction": 0.0027200000000000015,
                    "idle": 0.15089364703156008,
                    "load_balancing": 0.0120228
                }
            },
            "worker-01": {
                "nodes_expanded": 57,
                "redundant_expansions": 0,
                "recovery_activations": 1,
                "time": {
                    "bb": 0.5603783108029198,
                    "communication": 0.009784199999999996,
                    "contraction": 0.0032200000000000006,
                    "idle": 0.11005167721205736,
                    "load_balancing": 0.0117786
                }
            },
            "worker-02": {
                "nodes_expanded": 67,
                "redundant_expansions": 0,
                "recovery_activations": 0,
                "time": {
                    "bb": 0.5705122216800464,
                    "communication": 0.0063264,
                    "contraction": 0.0033200000000000018,
                    "idle": 0.09940407248868757,
                    "load_balancing": 0.012573599999999997
                }
            },
            "worker-03": {
                "nodes_expanded": 60,
                "redundant_expansions": 0,
                "recovery_activations": 1,
                "time": {
                    "bb": 0.5536810262997235,
                    "communication": 0.007478000000000004,
                    "contraction": 0.0029600000000000017,
                    "idle": 0.11731090175770566,
                    "load_balancing": 0.010476000000000001
                }
            },
            "worker-04": {
                "nodes_expanded": 60,
                "redundant_expansions": 0,
                "recovery_activations": 1,
                "time": {
                    "bb": 0.5065908315611545,
                    "communication": 0.009344399999999997,
                    "contraction": 0.0036800000000000027,
                    "idle": 0.15565351734749266,
                    "load_balancing": 0.016126399999999992
                }
            },
            "worker-05": {
                "nodes_expanded": 58,
                "redundant_expansions": 0,
                "recovery_activations": 0,
                "time": {
                    "bb": 0.5267669016877236,
                    "communication": 0.00877,
                    "contraction": 0.0033000000000000017,
                    "idle": 0.14158045164279412,
                    "load_balancing": 0.012615399999999997
                }
            }
        }
    },
    "faults": {
        "makespan": 1.0408633606604618,
        "redundant_nodes_expanded": 103,
        "total_bytes_sent": 41728,
        "bytes_by_kind": {
            "delta_gossip": 9897,
            "gossip_ack": 2320,
            "heartbeat": 9592,
            "root_report": 176,
            "work_denied": 3244,
            "work_grant": 3359,
            "work_report": 7538,
            "work_request": 5602
        },
        "messages_by_kind": {
            "delta_gossips": 67,
            "gossip_acks": 40,
            "heartbeats": 99,
            "root_reports": 4,
            "work_denials": 76,
            "work_forwards": 0,
            "work_grants": 53,
            "work_reports": 94,
            "work_requests": 133
        },
        "crashed_workers": [
            "worker-03"
        ],
        "workers": {
            "worker-00": {
                "nodes_expanded": 94,
                "redundant_expansions": 1,
                "recovery_activations": 1,
                "time": {
                    "bb": 0.8268850537465047,
                    "communication": 0.016517999999999984,
                    "contraction": 0.004560000000000004,
                    "idle": 0.18262493205970015,
                    "load_balancing": 0.014965599999999994
                }
            },
            "worker-01": {
                "nodes_expanded": 92,
                "redundant_expansions": 0,
                "recovery_activations": 3,
                "time": {
                    "bb": 0.8059950128530919,
                    "communication": 0.01599379999999998,
                    "contraction": 0.004560000000000003,
                    "idle": 0.2047207682298519,
                    "load_balancing": 0.015281599999999994
                }
            },
            "worker-02": {
                "nodes_expanded": 69,
                "redundant_expansions": 5,
                "recovery_activations": 2,
                "time": {
                    "bb": 0.6451549770803612,
                    "communication": 0.01266019999999999,
                    "contraction": 0.003460000000000002,
                    "idle": 0.1253947142236771,
                    "load_balancing": 0.008346600000000003
                }
            },
            "worker-03": {
                "nodes_expanded": 25,
                "redundant_expansions": 0,
                "recovery_activations": 0,
                "time": {
                    "bb": 0.2258506477715328,
                    "communication": 0.0028115999999999996,
                    "contraction": 0.0008800000000000002,
                    "idle": 0.06982187037615392,
                    "load_balancing": 0.0046366
                }
            },
            "worker-04": {
                "nodes_expanded": 87,
                "redundant_expansions": 1,
                "recovery_activations": 2,
                "time": {
                    "bb": 0.8187582899709583,
                    "communication": 0.019678399999999974,
                    "contraction": 0.004160000000000003,
                    "idle": 0.189735680032295,
                    "load_balancing": 0.014901199999999995
                }
            },
            "worker-05": {
                "nodes_expanded": 87,
                "redundant_expansions": 0,
                "recovery_activations": 2,
                "time": {
                    "bb": 0.7695088574009272,
                    "communication": 0.01779839999999999,
                    "contraction": 0.004420000000000003,
                    "idle": 0.2345504737672277,
                    "load_balancing": 0.019589799999999973
                }
            }
        }
    }
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_run_is_unchanged(name):
    assert_matches(observe(SCENARIOS[name]), GOLDEN[name], name)


if __name__ == "__main__":
    observed = {name: observe(SCENARIOS[name]) for name in sorted(SCENARIOS)}
    print("GOLDEN = " + json.dumps(observed, indent=4))
