"""TRANSPORT — pipe vs uds vs tcp on the real-process fabric.

The realexec transport seam promises that swapping the link technology
changes *where the bytes flow*, never the protocol or the answer: the same
envelope frames ride multiprocessing pipes (``pipe``), Unix-domain stream
sockets (``uds``) or a TCP listener the workers dial (``tcp``).  This
benchmark holds the transports to that promise on the figure-3 workload and
probes the single-selector-loop router where it actually differs from the
old thread-per-connection design — fan-in:

* **makespan tier** — one figure-3 cluster run per transport at 8 workers;
  each transport's wall clock and router throughput join the tracked
  trajectory, so a PR that fattens any one forwarding path shows up against
  ``benchmarks/BENCH_BASELINE.json``;
* **saturation tier** — one router thread multiplexing a 100-worker TCP
  cluster, gated at ``SATURATION_FACTOR ×`` the makespan of the 8-worker
  uds reference on the same workload (101 nodes × 0.15 s ≈ 15 s of
  sequential work).  The reference is bound by its 8 workers; the big
  cluster has more workers than the tree has parallelism, so it is bound
  by the tree's critical path plus whatever a 12× fan-in of requests,
  denials and reports costs through the one selector loop.  The acceptance
  bar: the extra workers may not buy a speedup, but they must cost
  coordination, not the router;
* **latency tier** — a request/reply ping-pong through the TCP router with
  TCP_NODELAY on (the shipped configuration) vs. deliberately off,
  printing the Nagle cost the transport avoids.  Measured, not gated: on
  loopback the delayed-ACK interplay is timer-dependent.

Worker counts in the saturation tier scale with ``REPRO_BENCH_SCALE`` (the
CI drift gate runs ≈20 workers); the gate ratio applies at every scale.
"""

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import time

import pytest

from _harness import effective_scale, print_experiment, scale_factor
from repro.analysis.figures import figure3_tree
from repro.core.work_report import BestSolution
from repro.distributed.messages import WorkRequest
from repro.realexec.driver import LocalCluster
from repro.realexec.transport import (
    Envelope,
    TcpRouter,
    recv_envelope,
    resolve_connection,
    send_envelope,
)

TRANSPORTS = ("pipe", "uds", "tcp")
#: Makespan tier: the figure-3 cluster size.
N_WORKERS = 8
NODE_SLEEP = 0.01
#: Saturation tier: the full-size TCP cluster and the uds reference size.
SATURATION_WORKERS = 100
SATURATION_MIN_WORKERS = 12
SATURATION_REFERENCE_WORKERS = 8
#: Node granularity for the saturation tier: coarse enough that node work,
#: not process start-up, sets the wall clock of both clusters, with
#: coordination overhead — the thing a 100-way fan-in actually stresses —
#: showing up as the ratio between them.
SATURATION_NODE_SLEEP = 0.15
#: The saturation tree stays fixed: the tier's variable is the worker
#: count, and the gate compares two cluster sizes on the *same* workload.
SATURATION_TREE_SCALE = 0.005
#: The gate: the 100-worker TCP cluster's makespan may cost at most this
#: multiple of the 8-worker uds reference on the same workload.
SATURATION_FACTOR = 1.25
#: Latency tier: request/reply round trips per NODELAY setting.
PING_PONG_ROUNDS = 150


def _run_cluster(tree, n_workers: int, transport: str, node_sleep: float):
    cluster = LocalCluster(
        tree,
        n_workers,
        seed=7,
        node_sleep=node_sleep,
        max_seconds=120.0,
        transport=transport,
    )
    return cluster.run()


@pytest.mark.benchmark(group="transport_makespan")
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_transport_makespan(benchmark, transport):
    scale = effective_scale(0.03)
    tree = figure3_tree(scale=scale, seed=7)

    result = benchmark.pedantic(
        lambda: _run_cluster(tree, N_WORKERS, transport, NODE_SLEEP),
        rounds=1,
        iterations=1,
    )

    throughput = result.bytes_forwarded / result.wall_time
    print_experiment(
        f"TRANSPORT MAKESPAN — figure-3 workload over {transport} "
        f"(scale={scale:g}, {N_WORKERS} workers)",
        f"makespan      : {result.wall_time:7.3f} s\n"
        f"forwarded     : {result.messages_forwarded:6d} msgs, "
        f"{result.bytes_forwarded:8d} B  ({throughput / 1e3:8.1f} kB/s)\n"
        f"dropped       : {result.messages_dropped:6d} msgs",
    )
    # The transport must never cost the answer.
    assert result.surviving_terminated, f"{transport} cluster did not terminate"
    assert result.solved_correctly, f"{transport} cluster missed the optimum"
    assert result.messages_forwarded > 0 and result.bytes_forwarded > 0


def _measure_cluster_subprocess(transport: str, n_workers: int) -> dict:
    """Run one saturation cluster in a fresh interpreter.

    The cluster forks its workers from the running process, so a fat parent
    (a long pytest session full of earlier benchmarks' heaps) taxes a
    100-fork cluster far more than an 8-fork one — every child dirties the
    inherited pages its first GC cycle touches.  A clean child interpreter
    gives both cluster sizes the same small fork image, whatever ran before.
    """
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", transport,
         str(n_workers)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _child(transport: str, n_workers: int) -> None:
    tree = figure3_tree(scale=SATURATION_TREE_SCALE, seed=7)
    result = _run_cluster(tree, n_workers, transport, SATURATION_NODE_SLEEP)
    print(
        json.dumps(
            {
                "transport": transport,
                "workers": n_workers,
                "wall_s": result.wall_time,
                "terminated": result.surviving_terminated,
                "solved": result.solved_correctly,
                "forwarded": result.messages_forwarded,
            }
        )
    )


@pytest.mark.benchmark(group="transport_saturation")
def test_tcp_router_saturation(benchmark):
    factor = scale_factor()
    if factor < 0:  # REPRO_FULL_SCALE: the full 100-worker tier.
        factor = 1.0
    n_tcp = max(SATURATION_MIN_WORKERS, int(round(SATURATION_WORKERS * factor)))

    reference = _measure_cluster_subprocess("uds", SATURATION_REFERENCE_WORKERS)
    tcp_result = benchmark.pedantic(
        lambda: _measure_cluster_subprocess("tcp", n_tcp),
        rounds=1,
        iterations=1,
    )

    ratio = tcp_result["wall_s"] / reference["wall_s"]
    print_experiment(
        f"TCP ROUTER SATURATION — one selector loop, {n_tcp} workers "
        f"(scale={factor:g})",
        f"uds reference : {reference['wall_s']:7.3f} s "
        f"({SATURATION_REFERENCE_WORKERS} workers)\n"
        f"tcp cluster   : {tcp_result['wall_s']:7.3f} s ({n_tcp} workers, "
        f"{tcp_result['forwarded']} msgs forwarded)\n"
        f"ratio         : {ratio:7.3f}x  (gate: <{SATURATION_FACTOR:g}x)",
    )
    assert reference["terminated"] and reference["solved"]
    assert tcp_result["terminated"], "tcp saturation cluster did not terminate"
    assert tcp_result["solved"], "tcp saturation cluster missed the optimum"
    assert ratio <= SATURATION_FACTOR, (
        f"{n_tcp}-worker tcp makespan {tcp_result['wall_s']:.3f}s is "
        f"{ratio:.3f}x the {SATURATION_REFERENCE_WORKERS}-worker uds "
        f"reference ({reference['wall_s']:.3f}s); gate is {SATURATION_FACTOR:g}x"
    )


class _NagleTcpRouter(TcpRouter):
    """A TcpRouter with Nagle's algorithm left on, for the latency tier."""

    def _configure_socket(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 0)


def _tcp_ping_pong(router_cls, *, nodelay: bool, rounds: int) -> float:
    """Median seconds for one write-write-read round trip via the router.

    Each round sends two back-to-back small frames (the pattern Nagle
    penalises: the second write sits in the kernel while the first is
    unacknowledged) and waits for the receiver's single reply.
    """
    router = router_cls()
    end_a = router.add_worker("a")
    end_b = router.add_worker("b")
    router.start()
    conn_a = conn_b = None
    try:
        conn_a = resolve_connection(end_a)
        conn_b = resolve_connection(end_b)
        if not nodelay:
            # The endpoints enable NODELAY when dialing; the Nagle variant
            # switches it back off on the worker-side sockets too.
            for conn in (conn_a, conn_b):
                conn._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 0)
        ping = Envelope("a", "b", WorkRequest(requester="a", best=BestSolution(1.0, "a")))
        pong = Envelope("b", "a", WorkRequest(requester="b", best=BestSolution(1.0, "b")))
        times = []
        for i in range(rounds + 1):
            start = time.perf_counter()
            send_envelope(conn_a, ping)
            send_envelope(conn_a, ping)
            for _ in range(2):
                assert conn_b.poll(5.0)
                recv_envelope(conn_b)
            send_envelope(conn_b, pong)
            assert conn_a.poll(5.0)
            recv_envelope(conn_a)
            if i > 0:  # round 0 warms the connections (identify, defer-flush)
                times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        for conn in (conn_a, conn_b):
            if conn is not None:
                conn.close()
        router.stop()


@pytest.mark.benchmark(group="transport_latency")
def test_tcp_nodelay_round_trip(benchmark):
    nagle_median = _tcp_ping_pong(
        _NagleTcpRouter, nodelay=False, rounds=PING_PONG_ROUNDS
    )

    def nodelay_run():
        return _tcp_ping_pong(TcpRouter, nodelay=True, rounds=PING_PONG_ROUNDS)

    nodelay_median = benchmark.pedantic(nodelay_run, rounds=1, iterations=1)

    print_experiment(
        f"TCP NODELAY — write-write-read round trip via the router "
        f"({PING_PONG_ROUNDS} rounds)",
        f"TCP_NODELAY on : {nodelay_median * 1e6:9.1f} us/round trip (shipped)\n"
        f"Nagle enabled  : {nagle_median * 1e6:9.1f} us/round trip\n"
        f"delta          : {(nagle_median - nodelay_median) * 1e6:+9.1f} us "
        f"(loopback; WAN Nagle+delayed-ACK stalls are ~40 ms)",
    )
    assert nodelay_median > 0 and nagle_median > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, metavar=("TRANSPORT", "WORKERS"))
    args = parser.parse_args(argv)
    if args.child:
        transport, workers = args.child
        _child(transport, int(workers))
        return 0
    parser.error("run via pytest, or with --child for a subprocess measurement")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
