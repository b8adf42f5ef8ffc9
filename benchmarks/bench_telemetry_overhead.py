"""TEL-OVH — telemetry must be free when it is off.

The observability subsystem (``repro.obs``) threads tracer and metrics hooks
through the engine, the gossip layer and the network boundary.  Every
hot-path hook is one attribute check (``if tracer is not None``), so a run
that never asked for telemetry must cost the same as one built before the
subsystem existed.  This benchmark runs the figure-3
workload three ways —

* ``off``      — ``Scenario(telemetry=None)``, the default;
* ``disabled`` — ``TelemetryConfig(trace=False, metrics=False)``, an
  explicitly disabled config taking the same constructor path;
* ``full``     — ``TelemetryConfig()``, spans + metrics recorded;

— and **gates the disabled configurations at <3% wall-clock overhead**
relative to each other (median of interleaved rounds, plus a small absolute
epsilon for scheduler noise on sub-second runs).  The full-telemetry cost is
reported but not gated: recording is allowed to cost what it costs.
"""

import statistics
import time

import pytest

from _harness import effective_scale, print_experiment
from repro.analysis.figures import figure3_tree
from repro.bnb.pool import SelectionRule
from repro.distributed import AlgorithmConfig
from repro.scenario import Scenario, TelemetryConfig, WorkloadSpec, run_scenario

#: Interleaved measurement rounds per variant (medians compared).
ROUNDS = 3
#: The gate: disabled-telemetry median below off median × this factor…
OVERHEAD_FACTOR = 1.03
#: …plus this absolute epsilon (seconds), absorbing timer/scheduler noise.
OVERHEAD_EPSILON = 0.02


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.benchmark(group="telemetry_overhead")
def test_telemetry_disabled_overhead(benchmark):
    scale = effective_scale(0.3)
    tree = figure3_tree(scale=scale, seed=7)
    config = AlgorithmConfig(selection_rule=SelectionRule.DEPTH_FIRST)

    def scenario(telemetry):
        return Scenario(
            name="figure3-telemetry-overhead",
            workload=WorkloadSpec(kind="tree", tree=tree),
            n_workers=8,
            seed=7,
            config=config,
            telemetry=telemetry,
        )

    variants = {
        "off": scenario(None),
        "disabled": scenario(TelemetryConfig(trace=False, metrics=False)),
        "full": scenario(TelemetryConfig()),
    }

    # Sanity first: telemetry must never change the simulated outcome.
    results = {
        name: run_scenario(spec, backend="simulated")
        for name, spec in variants.items()
    }
    for name, result in results.items():
        assert result.terminated, name
        assert result.makespan == pytest.approx(results["off"].makespan), name
        assert result.best_value == results["off"].best_value, name
    assert results["off"].telemetry is None
    assert results["full"].telemetry is not None

    times = {name: [] for name in variants}
    for _ in range(ROUNDS):
        for name, spec in variants.items():
            times[name].append(_timed(lambda s=spec: run_scenario(s, "simulated")))
    medians = {name: statistics.median(values) for name, values in times.items()}
    overhead = medians["disabled"] / medians["off"] - 1.0
    full_overhead = medians["full"] / medians["off"] - 1.0

    benchmark.pedantic(
        lambda: run_scenario(variants["off"], "simulated"), rounds=1, iterations=1
    )
    print_experiment(
        f"TELEMETRY OVERHEAD — figure-3 workload (scale={scale:g}, 8 workers)",
        f"telemetry off      : {medians['off'] * 1e3:9.2f} ms (median of {ROUNDS})\n"
        f"telemetry disabled : {medians['disabled'] * 1e3:9.2f} ms "
        f"({overhead:+.2%}; gate <{OVERHEAD_FACTOR - 1.0:.0%} "
        f"+ {OVERHEAD_EPSILON * 1e3:.0f} ms epsilon)\n"
        f"telemetry full     : {medians['full'] * 1e3:9.2f} ms "
        f"({full_overhead:+.2%}; informational)",
    )
    assert (
        medians["disabled"] <= medians["off"] * OVERHEAD_FACTOR + OVERHEAD_EPSILON
    ), (
        f"disabled telemetry overhead {overhead:+.2%} exceeds the gate: "
        f"disabled {medians['disabled']:.4f}s vs off {medians['off']:.4f}s"
    )
