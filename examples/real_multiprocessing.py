#!/usr/bin/env python3
"""The same scenario outside the simulator: the ``quickstart`` scenario on
the ``realexec`` backend — real OS processes exchanging binary wire frames
over TCP — first failure-free, then with a worker process actually killed
mid-run.  Run it with:
``PYTHONPATH=src python examples/real_multiprocessing.py``."""
from repro.scenario import FailureSpec, get_scenario, run_scenario


def main() -> None:
    base = get_scenario("quickstart").with_overrides(failures=(), node_sleep=0.002)
    result = run_scenario(base, backend="realexec")
    print(result.report(title="--- three real processes over TCP ---"), "\n")
    assert result.terminated and result.solved_correctly
    kill = FailureSpec(victims=(2,), after_seconds=0.15)
    faulty = run_scenario(base.with_overrides(node_sleep=0.01, failures=(kill,)), "realexec")
    print(faulty.report(title="--- same run, rworker-02 killed at 0.15 s ---"))
    assert faulty.terminated and faulty.solved_correctly


if __name__ == "__main__":
    main()
