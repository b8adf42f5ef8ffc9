"""``python -m repro`` — the command-line face of the scenario API.

Four subcommands:

* ``list-scenarios`` — the registered named scenarios and their backends;
* ``run <scenario>`` — run one scenario on one backend and print its
  normalised summary (``--backend``, ``--workers``, ``--seed``,
  ``--scale`` override the registered spec; ``--trace
  out.json`` writes a Chrome/Perfetto trace, ``--metrics`` prints the
  unified metrics registry);
* ``compare <scenario>`` — run the same scenario on several backends
  (default: the three simulated designs) and print one comparison table;
* ``inspect <trace.json>`` — render a previously written Chrome trace as
  an ASCII Gantt chart plus its top-line metrics, without re-running
  anything.

``-v``/``-q`` (before the subcommand) raise/lower logging verbosity on the
``repro.*`` logger hierarchy (stderr).

Examples::

    python -m repro list-scenarios
    python -m repro run figure3 --backend simulated
    python -m repro run quickstart --trace quickstart.json --metrics
    python -m repro run quickstart --backend realexec
    python -m repro compare crash-storm --backends simulated,central,dib
    python -m repro inspect quickstart.json
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import List, Optional

from ..obs import MetricsRegistry, TelemetryConfig, configure_logging, get_logger
from .backends import backend_names, compare_backends, run_scenario
from .registry import get_scenario, list_scenarios
from .result import format_comparison
from .spec import Scenario

__all__ = ["main"]

logger = get_logger("scenario.cli")


def _exists_at(victim, canonical) -> bool:
    """Does a victim / partition member still exist at this worker count?"""
    from .spec import canonical_index

    index = canonical_index(victim)
    return index is None or 0 <= index < len(canonical)


def _shrink_failures(scenario: Scenario, canonical) -> tuple:
    """Drop failure victims that no longer exist at a smaller worker count."""
    specs = []
    for spec in scenario.failures:
        victims = tuple(v for v in spec.victims if _exists_at(v, canonical))
        if victims:
            specs.append(replace(spec, victims=victims))
    return tuple(specs)


def _shrink_partitions(scenario: Scenario, canonical) -> "NetworkConfig":
    """Drop partition members (and emptied partitions) that no longer exist."""
    partitions = []
    for p in scenario.network.partitions:
        group_a = frozenset(n for n in p.group_a if _exists_at(n, canonical))
        group_b = frozenset(n for n in p.group_b if _exists_at(n, canonical))
        if group_a and group_b:
            partitions.append(replace(p, group_a=group_a, group_b=group_b))
    return replace(scenario.network, partitions=tuple(partitions))


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """Apply the common CLI override flags to a registered scenario.

    Shrinking ``--workers`` prunes failure victims and partition members
    that no longer exist; anything dropped is reported, so the printed
    description never silently claims behaviour the run no longer has.
    """
    changes = {}
    if getattr(args, "workers", None) is not None:
        from ..distributed.runner import worker_names

        canonical = worker_names(args.workers)
        changes["n_workers"] = args.workers
        changes["failures"] = _shrink_failures(scenario, canonical)
        changes["network"] = _shrink_partitions(scenario, canonical)
        dropped_victims = sum(len(s.victims) for s in scenario.failures) - sum(
            len(s.victims) for s in changes["failures"]
        )
        dropped_partitions = len(scenario.network.partitions) - len(
            changes["network"].partitions
        )
        if dropped_victims or dropped_partitions:
            logger.warning(
                "--workers %d dropped %d failure victim(s) and %d "
                "partition(s) naming workers that no longer exist — the "
                "scenario's failure semantics changed",
                args.workers,
                dropped_victims,
                dropped_partitions,
            )
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "scale", None) is not None:
        changes["workload"] = replace(
            scenario.workload, scale=scenario.workload.scale * args.scale
        )
    if getattr(args, "trace", None) is not None or getattr(args, "metrics", False):
        # Telemetry rides along with whichever output the user asked for;
        # metrics are cheap enough to always collect when telemetry is on.
        changes["telemetry"] = TelemetryConfig(
            trace=getattr(args, "trace", None) is not None, metrics=True
        )
    return scenario.with_overrides(**changes) if changes else scenario


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, help="override the worker count")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument(
        "--scale", type=float, help="multiply the workload scale (e.g. 0.1 for a quick run)"
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from ..analysis.tables import format_table

    rows = [
        {
            "scenario": s.name,
            "workload": s.workload.describe(),
            "workers": s.n_workers,
            "failures": sum(len(f.victims) for f in s.failures),
            "description": s.description,
        }
        for s in list_scenarios()
    ]
    print(format_table(rows, title="--- registered scenarios ---"))
    print(f"\nbackends: {', '.join(backend_names())}")
    print("run one with: python -m repro run <scenario> --backend <backend>")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(get_scenario(args.scenario), args)
    result = run_scenario(scenario, backend=args.backend)
    if scenario.description:
        print(f"{scenario.name}: {scenario.description}\n")
    print(result.report())
    if result.solved_correctly is False or not result.terminated:
        print("\nnote: the run did not terminate on the reference optimum "
              "(for the baseline backends under critical failures, that is the point)")
    telemetry = result.telemetry
    if args.trace is not None:
        if telemetry is None or telemetry.tracer is None:
            print(f"note: backend {args.backend!r} produced no trace records")
        else:
            telemetry.write_chrome_trace(args.trace)
            print(f"\nwrote Chrome trace to {args.trace} "
                  f"(open in Perfetto or chrome://tracing; "
                  f"inspect with: python -m repro inspect {args.trace})")
    if args.metrics:
        if telemetry is None or telemetry.metrics is None:
            print(f"note: backend {args.backend!r} produced no metrics")
        else:
            print("\n--- metrics ---")
            print(telemetry.metrics_text(), end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(get_scenario(args.scenario), args)
    backends = [name.strip() for name in args.backends.split(",") if name.strip()]
    results = compare_backends(scenario, backends)
    if scenario.description:
        print(f"{scenario.name}: {scenario.description}\n")
    print(format_comparison(results, title=f"--- {scenario.name}: backend comparison ---"))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from ..analysis.timeline import ascii_gantt, worker_spans
    from ..obs.chrome import category_span_counts, load_chrome_trace, spans_from_chrome

    try:
        document = load_chrome_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}")
        return 2

    meta = document.get("repro", {}).get("meta", {})
    if meta:
        described = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        print(f"--- trace: {args.trace} ({described}) ---")
    else:
        print(f"--- trace: {args.trace} ---")

    counts = category_span_counts(document)
    if counts:
        total = sum(counts.values())
        by_cat = ", ".join(f"{cat}={n}" for cat, n in sorted(counts.items()))
        print(f"{total} spans across {len(counts)} categories: {by_cat}")

    print()
    print(ascii_gantt(worker_spans(spans_from_chrome(document)), width=args.width))

    metrics = document.get("repro", {}).get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        print("\ntop counters:")
        ranked = sorted(counters.items(), key=lambda kv: -kv[1])[: args.top]
        for key, value in ranked:
            print(f"  {key:<48} {value}")
        if len(counters) > args.top:
            print(f"  ... and {len(counters) - args.top} more "
                  f"(re-run with --top {len(counters)})")
    if counters:
        registry = MetricsRegistry.from_snapshot(metrics)
        pulls, answers = (
            int(registry.total(f"worker_news_{kind}_sent")) for kind in ("pulls", "answers")
        )
        print(f"\nnews for redone work: {pulls} pulls sent, {answers} answers sent")
        forwarded, exhausted = (
            int(registry.total(f"worker_{name}"))
            for name in ("work_requests_forwarded", "walks_exhausted")
        )
        print(
            f"walks past idle peers: {forwarded} requests forwarded, "
            f"{exhausted} walks exhausted"
        )
    gauges = metrics.get("gauges", {})
    if gauges:
        print("\ngauges (value/peak):")
        for key, entry in sorted(gauges.items()):
            print(f"  {key:<48} {entry['value']:g}/{entry['peak']:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative fault-tolerance scenarios on any backend.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise logging verbosity (-v info, -vv debug; stderr)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="lower logging verbosity (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list-scenarios", help="list the registered scenarios")
    list_p.set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="run one scenario on one backend")
    run_p.add_argument("scenario", help="a registered scenario name")
    run_p.add_argument(
        "--backend",
        default="simulated",
        choices=backend_names(),
        help="backend to run on (default: simulated)",
    )
    run_p.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome/Perfetto trace of the run to PATH (enables telemetry)",
    )
    run_p.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's unified metrics registry (enables telemetry)",
    )
    _add_override_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run one scenario on several backends")
    cmp_p.add_argument("scenario", help="a registered scenario name")
    cmp_p.add_argument(
        "--backends",
        default="simulated,central,dib",
        help="comma-separated backend names (default: simulated,central,dib)",
    )
    _add_override_flags(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    inspect_p = sub.add_parser(
        "inspect", help="render a Chrome trace as an ASCII Gantt plus metrics"
    )
    inspect_p.add_argument("trace", help="path of a trace written by run --trace")
    inspect_p.add_argument(
        "--width", type=int, default=80, help="Gantt chart width in columns"
    )
    inspect_p.add_argument(
        "--top", type=int, default=12, help="number of counters to show"
    )
    inspect_p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return 2
    except ValueError as exc:
        # Invalid overrides (e.g. --workers 0) must
        # fail loudly with the validation message, not a traceback.
        print(f"error: {exc}")
        return 2
