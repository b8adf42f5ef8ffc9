"""One workload in one fresh process: set-up, reps, checks, metrics.

``run.py`` starts this file once per workload (and a few more times with
``--setup-only`` to sample set-up time).  It prints one JSON object on its
last line of standard output.  Everything is measured from outside: the
end-to-end numbers come from ``repro.scenario.run_scenario`` and the
``ScenarioResult`` it returns, with tracing off; the per-layer numbers come
from a separate traced pass (:mod:`layers`).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE.parents[1] / "src"), str(_HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from workloads import (  # noqa: E402
    WORKLOADS,
    Rep,
    Setup,
    Workload,
    rep_seed,
    reps_for,
    run_rep,
    set_up,
    tree_digest,
)

__all__ = ["END_TO_END", "end_to_end", "measure"]

#: End-to-end metrics: name -> unit (definitions in README.md).  ``setup_s``
#: is added by ``run.py`` from several set-up samples.
END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "speedup": "x",
    "work_ratio": "x",
    "bytes_per_node": "B",
    "msgs_per_node": "1",
    "peak_rss_mb": "MB",
    "makespan_s": "s",
}

#: Realexec frames that report to the driver rather than carry the protocol.
_NON_PROTOCOL_KINDS = ("worker_outcome", "worker_telemetry")


def end_to_end(rep: Rep, setup: Setup) -> Dict[str, float]:
    """The per-rep end-to-end metrics of one completed rep."""
    result = rep.result
    excluded_bytes = sum(result.bytes_by_kind.get(kind, 0) for kind in _NON_PROTOCOL_KINDS)
    # Telemetry is off in these reps, so the only non-protocol frames are the
    # outcomes, one per collected worker.
    excluded_msgs = len(result.raw.outcomes) if result.backend == "realexec" else 0
    expanded = sum(worker.nodes_expanded for worker in result.workers.values())
    return {
        "run_wall_s": rep.run_wall_s,
        "makespan_s": result.makespan,
        "speedup": setup.sequential_s / result.makespan,
        "work_ratio": expanded / setup.nodes,
        "bytes_per_node": (result.bytes_total - excluded_bytes) / setup.nodes,
        "msgs_per_node": (result.messages_total - excluded_msgs) / setup.nodes,
    }


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest (waited-for) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload: Workload, setup: Setup, *, seed: int, reps: int, quick: bool) -> dict:
    """The untraced pass: ``reps`` reps, medians, failures counted."""
    samples: Dict[str, List[float]] = {}
    attempted = failed = 0
    for rep_index in range(reps):
        rep = run_rep(workload, setup, quick=quick, run_seed=rep_seed(seed, rep_index))
        attempted += rep.attempted
        failed += rep.failed
        if rep.result is None:
            continue
        for name, value in end_to_end(rep, setup).items():
            samples.setdefault(name, []).append(value)
    if not samples:
        raise RuntimeError(f"every rep of {workload.name} raised")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "reps": reps}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    setup = set_up(workload, quick=args.quick)
    setup_s = time.perf_counter() - _PROCESS_START
    info = {"setup_s": setup_s, "nodes": setup.nodes, "tree_digest": tree_digest(setup.tree)}
    if args.setup_only:
        print(json.dumps(info))
        return 0
    if args.trace:
        from layers import traced_pass

        outcome = traced_pass(workload, setup, seed=args.seed, quick=args.quick, out=args.out)
    else:
        reps = reps_for(workload, args.seconds, quick=args.quick)
        outcome = measure(workload, setup, seed=args.seed, reps=reps, quick=args.quick)
    outcome.update(info)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
