"""Bridges from the run-result structures into the metrics registry.

The registry (:mod:`repro.obs.metrics`) is deliberately generic; this module
knows the shapes of the codebase's scattered counters and folds each of them
in under stable metric names:

* ``engine_*`` — the engine-level scale counters
  (``RunResult.engine_counters``: events, peak heap, entity steps, peak
  arena nodes and arena collections);
* ``net_*`` — the simulated network's
  :class:`~repro.simulation.network.TrafficStats` plus the per-kind byte and
  message maps (labeled ``kind=...``);
* ``worker_*`` — the per-worker
  :class:`~repro.distributed.stats.WorkerRunStats` work/gossip/recovery
  counters (labeled ``worker=...``; time accounts additionally
  ``kind=<category>``);
* ``router_*`` — the realexec router's forwarded/dropped counts, per-link
  bytes (labeled ``link="src->dst"``) and per-kind bytes.

Everything is duck-typed on attribute access, so this module imports nothing
from the simulation or realexec layers and stays importable everywhere.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .metrics import MetricsRegistry

__all__ = [
    "ingest_engine_counters",
    "ingest_traffic",
    "ingest_worker_stats",
    "ingest_run_result",
    "ingest_router",
    "ingest_scenario_totals",
]

#: WorkerRunStats counters mirrored into the registry (the work, gossip and
#: recovery counters the paper's evaluation and the delta-gossip benchmark
#: read; the full per-worker record stays on ``RunResult.workers``).
_WORKER_COUNTERS = (
    "nodes_expanded",
    "nodes_pruned",
    "reports_sent",
    "delta_gossips_sent",
    "delta_gossips_suppressed",
    "gossip_acks_sent",
    "gossip_views_pruned",
    "codes_received",
    "codes_received_redundant",
    "work_requests_sent",
    "work_grants_sent",
    "work_pushes_sent",
    "work_requests_forwarded",
    "walks_exhausted",
    "work_denials_sent",
    "news_pulls_sent",
    "news_answers_sent",
    "heartbeats_sent",
    "peers_evicted",
    "leaves",
    "rejoins",
    "recovery_activations",
    "recovery_aborted",
    "redundant_expansions",
    "fast_path_steps",
    "entity_steps",
)

#: Engine counters that are high-water marks, not sums.
_ENGINE_GAUGES = ("peak_heap_len", "arena_nodes_peak")


def ingest_engine_counters(
    registry: MetricsRegistry, counters: Dict[str, int]
) -> None:
    """Fold ``RunResult.engine_counters`` in as ``engine_*`` metrics."""
    for name, value in counters.items():
        if name in _ENGINE_GAUGES:
            registry.gauge(f"engine_{name}").set(value)
        else:
            registry.counter(f"engine_{name}").inc(value)


def ingest_traffic(
    registry: MetricsRegistry,
    stats: Any,
    *,
    kind_bytes: Optional[Dict[str, int]] = None,
    kind_messages: Optional[Dict[str, int]] = None,
) -> None:
    """Fold a :class:`TrafficStats` (and per-kind maps) in as ``net_*``."""
    if stats is not None:
        for name, value in stats.as_dict().items():
            registry.counter(f"net_{name}").inc(value)
    for kind, value in (kind_bytes or {}).items():
        registry.counter("net_bytes_by_kind", kind=kind).inc(value)
    for kind, value in (kind_messages or {}).items():
        registry.counter("net_messages_by_kind", kind=kind).inc(value)


def ingest_worker_stats(
    registry: MetricsRegistry, stats: Any, *, keep_zeros: bool = False
) -> None:
    """Fold one worker's :class:`WorkerRunStats` in as ``worker_*`` (zero
    counters only with ``keep_zeros``: a real worker ships each one)."""
    worker = stats.name
    for counter_name in _WORKER_COUNTERS:
        value = getattr(stats, counter_name, 0)
        if value or keep_zeros:
            registry.counter(f"worker_{counter_name}", worker=worker).inc(value)
    for category, seconds in getattr(stats, "time", {}).items():
        if seconds:
            registry.counter(
                "worker_time_seconds", worker=worker, kind=category
            ).inc(seconds)
    peak = getattr(stats, "storage_peak_bytes", 0)
    if peak:
        registry.gauge("worker_storage_peak_bytes", worker=worker).set(peak)


def ingest_run_result(registry: MetricsRegistry, result: Any) -> MetricsRegistry:
    """Fold a simulated :class:`RunResult` in (engine, network, workers)."""
    ingest_engine_counters(registry, getattr(result, "engine_counters", {}) or {})
    ingest_traffic(
        registry,
        getattr(result, "network", None),
        kind_bytes=getattr(result, "bytes_by_kind", None),
        kind_messages=None,
    )
    for kind, count in (getattr(result, "messages_by_kind", None) or {}).items():
        registry.counter("net_messages_by_kind", kind=kind).inc(count)
    for stats in getattr(result, "workers", {}).values():
        ingest_worker_stats(registry, stats)
    return registry


def ingest_router(registry: MetricsRegistry, router: Any) -> None:
    """Fold a realexec :class:`~repro.realexec.transport.TcpRouter`'s counters in
    as ``router_*``."""
    registry.counter("router_messages_forwarded").inc(router.forwarded)
    registry.counter("router_messages_dropped").inc(router.dropped)
    registry.counter("router_bytes_forwarded").inc(router.bytes_forwarded)
    for (src, dst), value in getattr(router, "link_bytes", {}).items():
        registry.counter("router_link_bytes", link=f"{src}->{dst}").inc(value)
    for (src, dst), value in getattr(router, "link_messages", {}).items():
        registry.counter("router_link_messages", link=f"{src}->{dst}").inc(value)
    for kind, value in getattr(router, "kind_bytes", {}).items():
        registry.counter("router_bytes_by_kind", kind=kind).inc(value)
    for kind, value in getattr(router, "kind_messages", {}).items():
        registry.counter("router_messages_by_kind", kind=kind).inc(value)
    # A router running with live metrics (the forward-latency histograms
    # observed inside the forwarding loop) carries its own registry; fold it
    # in via its snapshot so bucket bounds round-trip exactly.
    live = getattr(router, "metrics", None)
    if live is not None:
        registry.merge_snapshot(live.snapshot())


def ingest_scenario_totals(registry: MetricsRegistry, result: Any) -> MetricsRegistry:
    """Fold a normalised :class:`ScenarioResult`'s cross-backend totals in.

    Used by the baseline backends (``central``, ``dib``) whose native
    results have no richer per-layer counters to offer.
    """
    registry.counter("run_nodes_expanded").inc(result.total_nodes_expanded)
    registry.counter("run_redundant_nodes_expanded").inc(
        result.redundant_nodes_expanded
    )
    registry.counter("run_recoveries").inc(result.recoveries)
    registry.counter("net_messages_sent").inc(result.messages_total)
    registry.counter("net_bytes_sent").inc(result.bytes_total)
    for kind, value in (result.bytes_by_kind or {}).items():
        registry.counter("net_bytes_by_kind", kind=kind).inc(value)
    for name, worker in result.workers.items():
        if worker.nodes_expanded:
            registry.counter("worker_nodes_expanded", worker=name).inc(
                worker.nodes_expanded
            )
    return registry
