"""How long a starved worker waits: the pacing rules both drivers share.

A worker whose pool is empty asks peers for work, pushes its completed table
to one of them, and — once progress has stalled — suspects loss and
regenerates a missing subtree (Section 5.3.2).  Every "how long" in that loop
is measured in the worker's own node cost: a busy donor reads requests only
between nodes, and a table cannot gain news faster than nodes complete.  The
table push doubles as a work request: a donor pushes surplus to the peers it
heard from within one request timeout (:func:`push_targets`).

The rules are plain functions over explicit inputs (a node cost, a one-way
transit, clock readings), so the protocol core
(:class:`~repro.distributed.protocol.ProtocolCore`) runs the same ones on
the simulated clock and on a real process's wall clock.  Merges are
idempotent, so nothing here needs to know whether a message was lost,
duplicated or late.  docs/ARCHITECTURE.md, "Starved-worker
pacing" and "Requests walk past idle peers", has the measurements behind
each constant.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

__all__ = [
    "TABLE_GOSSIP_INTERVAL",
    "IDLE_PACE_CAP",
    "IDLE_GOSSIP_NODE_COST_FRACTION",
    "STALL_NODE_COSTS",
    "BOOTSTRAP_FLOOR",
    "BOOTSTRAP_NODE_COSTS",
    "EXHAUSTED_WALK_PUSH_INTERVALS",
    "moving_average",
    "request_timeout",
    "idle_pace",
    "push_interval",
    "walk_hops",
    "request_pause",
    "bootstrap_timeout",
    "stall_threshold",
    "blank_gate",
    "push_targets",
]

#: Every worker pushes a table delta to one random member at least this
#: often (s): the paper's "occasional" push of the completed table, which
#: informs new members of the state of the execution (Section 5.3.2).  A
#: starved worker pushes far more often (:func:`push_interval`).
TABLE_GOSSIP_INTERVAL = 30.0

#: A starved worker re-polls, and spaces its work requests, once per request
#: timeout (its node cost, floored at two network round trips: a busy donor
#: answers at its next expansion boundary, so waiting longer only idles) but
#: at least this often (s), so that at coarse grain retries and the
#: loss-suspicion check still run many times per node.  The same value
#: floors the starved-worker table push (``IDLE_GOSSIP_NODE_COST_FRACTION``):
#: a fine-grain worker polls several times per cap without pushing its table
#: any faster.
IDLE_PACE_CAP = 0.1

#: A starved worker pushes its table at most once per this fraction of its
#: measured node cost (never faster than ``IDLE_PACE_CAP``).  A table
#: gains a locally completed code at most once per node cost, so more than
#: a few pushes per node time mostly re-ship what the peer already heard
#: from someone else: at 100 workers × 3.35 s nodes the 0.1 s poll cadence
#: delivered 5.7 % novel codes, this one 22 %, for 30 % of the bytes.  The
#: knee of the measured sweep is 0.2–0.5; 0.25 is the cheapest value whose
#: speedup and work ratio stayed within 6 % of the poll cadence's on every
#: one of 18 seeds.  Gossip also repairs lost reports, so a larger value
#: costs work under message loss.
IDLE_GOSSIP_NODE_COST_FRACTION = 0.25

#: Loss is suspected only after this many node costs of starvation *with no
#: news*: every merge that teaches the table a new code restarts the clock,
#: so a worker that keeps hearing of completions elsewhere is watching the
#: tree shrink, not a lost subproblem.  This is the paper's "how soon failure
#: is suspected" knob, made granularity-aware so the same rule behaves for
#: 0.01 s and 3.35 s subproblems.
STALL_NODE_COSTS = 3.0

#: A worker that has never done any work and knows of no completed work
#: cannot tell "work was lost" from "work has not reached me yet", so it only
#: regenerates the root region after this much uninterrupted starvation (s)…
BOOTSTRAP_FLOOR = 10.0
#: …or this many node costs, whichever is longer.
BOOTSTRAP_NODE_COSTS = 30.0

#: A requester whose walk met no busy peer (:func:`walk_hops`) waits this
#: many push intervals, about 0.375 node costs, before it asks again.  On
#: the 32-worker Table 1 floor tree (seeds 1-30, mean speedup and
#: messages) 1.0 reads 24.94 and 5,803, 1.5 reads 24.48 and 5,897, 2.0
#: 24.73 and 5,429, and denying without walking 24.82 and 8,067.  On a
#: prototype, walking with no backoff sent 16-21 % more messages than
#: denying, and a backoff of one request timeout read 22.77 on seed 2.
EXHAUSTED_WALK_PUSH_INTERVALS = 1.5


def moving_average(average: float, sample: float) -> float:
    """The 0.9/0.1 moving average of node costs and transits; the first
    sample (or a non-positive average) seeds it."""
    if average <= 0:
        return sample
    return 0.9 * average + 0.1 * sample


def request_timeout(node_cost: float, transit: float) -> float:
    """How long a work request may go unanswered before it counts as failed.

    A busy peer reads its inbox only between node expansions, so a live
    peer answers after the rest of its current node plus one network round
    trip (twice the one-way ``transit``).  With nodes longer than a round
    trip the wait is one node cost: the rarer answer that comes later is
    still used (a late grant is accepted), while a fixed floor above it
    idles on a dead peer.  With nodes shorter than a round trip, node cost
    plus round trip is under two round trips, the floor — without it every
    request, even an idle peer's immediate denial, would time out.  With no
    node cost known the pace cap stands in.
    """
    if node_cost <= 0:
        return IDLE_PACE_CAP
    return max(node_cost, 4 * transit)


def idle_pace(node_cost: float, transit: float) -> float:
    """Pause between a starved worker's polls, and between its requests."""
    return min(IDLE_PACE_CAP, request_timeout(node_cost, transit))


def push_interval(node_cost: float) -> float:
    """Minimum pause between a starved worker's table pushes."""
    return max(IDLE_PACE_CAP, IDLE_GOSSIP_NODE_COST_FRACTION * node_cost)


def walk_hops(node_cost: float, transit: float, n_peers: int) -> int:
    """How many times an idle worker may pass a work request on (0: never).

    Every starved worker sends the same request; its receiver decides by
    its own reading of this limit.  At coarse grain, where a request may
    wait longer than ``IDLE_PACE_CAP``, a worker whose pool is empty does
    not deny a request carrying fewer hops than this: it forwards it to a
    random peer other than the requester, so the request parks at a busy
    donor's next expansion boundary within milliseconds instead of bouncing
    between idle peers at the poll cadence.  The limit,
    ``n_peers.bit_length()`` (7 at 100 workers), ends a walk through a
    group that is idle almost everywhere; the last peer denies it as
    exhausted (:func:`request_pause`).  At fine grain the requester is
    re-polling within a node cost anyway, so nothing walks: an idle
    receiver denies at once, and that denial is never exhausted.
    """
    if request_timeout(node_cost, transit) <= IDLE_PACE_CAP:
        return 0
    return n_peers.bit_length()


def request_pause(node_cost: float, transit: float, exhausted: bool) -> float:
    """Pause between two of a starved worker's requests: one idle pace, or
    ``EXHAUSTED_WALK_PUSH_INTERVALS`` push intervals after a walk that
    ended at its hop limit (``exhausted``) without meeting a busy peer."""
    if exhausted:
        return EXHAUSTED_WALK_PUSH_INTERVALS * push_interval(node_cost)
    return idle_pace(node_cost, transit)


def bootstrap_timeout(node_cost: float, override: Optional[float] = None) -> float:
    """Starvation a blank worker must endure before regenerating the root
    (``override`` is an explicit setting that replaces the derived floor)."""
    if override is not None:
        return override
    return max(BOOTSTRAP_FLOOR, BOOTSTRAP_NODE_COSTS * node_cost)


def stall_threshold(node_cost: float, bootstrap: float) -> Optional[float]:
    """Starvation with no news required before loss is suspected.

    A worker with no node cost to scale by (none expected, none measured)
    waits the blank-worker floor ``bootstrap`` rather than suspect loss on
    failed requests alone.  ``None`` means no time condition.
    """
    threshold = STALL_NODE_COSTS * node_cost if node_cost > 0 else bootstrap
    return threshold if threshold > 0 else None


def blank_gate(
    blank: bool, blank_since: Optional[float], now: float, bootstrap: float
) -> Tuple[bool, Optional[float]]:
    """Gate against mistaking start-up starvation for lost work.

    A worker that has expanded a node, or whose table records any completed
    work, has evidence the computation is under way and may suspect loss
    normally.  A ``blank`` one (fresh join, nothing heard yet) only may after
    ``bootstrap`` seconds of uninterrupted blank starvation — otherwise every
    idle member would regenerate the root during ramp-up and the whole tree
    would be solved n times over.

    Returns whether recovery may run and the new start of the blank
    starvation (``blank_since`` is the previous one, ``None`` when none).
    """
    if not blank:
        return True, None
    if blank_since is None:
        return False, now
    return now - blank_since >= bootstrap, blank_since


def push_targets(starved: Mapping[str, float], now: float, timeout: float) -> List[str]:
    """Peers a worker with surplus should push one subproblem to, in order.

    ``starved`` maps each peer whose table push this worker has processed to
    when it processed it: only a starved worker pushes between node costs,
    so the push reads as "I have nothing to do" (a busy worker's periodic
    push reads the same; that misreading is accepted).  A signal older than
    one request ``timeout`` is stale — by then the peer has been answered
    by someone or is asking again — and the most recently heard peer comes
    first.  The caller gives one subproblem per target while it holds two
    or more, and forgets a peer once it pushed to or granted it.
    """
    fresh = [(heard, peer) for peer, heard in starved.items() if now - heard < timeout]
    fresh.sort(reverse=True)
    return [peer for _heard, peer in fresh]
