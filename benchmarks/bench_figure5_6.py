"""FIG5/FIG6 — Figures 5 and 6: the failure-recovery demonstration.

Figure 5 shows the execution timeline (Jumpshot) of a very small problem on
three processors with no failures; Figure 6 shows the same problem when two of
the three processors crash at about 85% of the execution time — the surviving
processor recovers the lost work and the computation still terminates with the
correct result.

This benchmark regenerates both runs, prints ASCII timelines (our Jumpshot
substitute), the per-process activity summary and the recovery evidence, and
asserts the properties the figures demonstrate.
"""

import pytest

from _harness import print_experiment
from repro.analysis import (
    activity_summary,
    figure56_scenario,
    format_table,
    recovery_evidence,
    worker_spans,
)


def _activity(result):
    """The per-worker state table of a traced run's ``worker`` spans."""
    return format_table(activity_summary(worker_spans(result.telemetry.tracer.iter_records())))


@pytest.mark.benchmark(group="figure5_6")
def test_figures_5_and_6_failure_recovery(benchmark):
    scenario = benchmark.pedantic(
        lambda: figure56_scenario(n_workers=3, crash_fraction=0.85),
        rounds=1,
        iterations=1,
    )
    no_failure = scenario["no_failure"]
    with_failures = scenario["with_failures"]
    evidence = recovery_evidence(with_failures)

    body = [
        f"workload: {scenario['tree']} (optimum {scenario['optimum']:.4f}); "
        f"crash of {', '.join(scenario['victims'])} at t={scenario['crash_time']:.2f}s",
        "",
        "FIGURE 5 — no failures:",
        scenario["no_failure_gantt"],
        _activity(no_failure),
        f"makespan {no_failure.makespan:.2f}s, solved correctly: {no_failure.solved_correctly}",
        "",
        "FIGURE 6 — two of three processors crash at ~85% of the execution:",
        scenario["with_failures_gantt"],
        _activity(with_failures),
        format_table([evidence]),
    ]
    print_experiment("FIGURES 5 & 6 — failure recovery on a very small problem", "\n".join(body))

    # Figure 5: everything terminates and is correct without failures.
    assert no_failure.all_terminated and no_failure.solved_correctly
    # Figure 6: the two victims crashed, the survivor still terminates with
    # the correct result.
    assert set(with_failures.crashed_workers) == set(scenario["victims"])
    assert evidence["surviving_workers"] == ["worker-00"]
    assert evidence["all_survivors_terminated"]
    assert evidence["solved_correctly"]
    # Recovering lost work cannot make the run faster than the clean run.
    assert with_failures.makespan >= no_failure.makespan * 0.95
