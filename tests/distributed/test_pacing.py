"""The starved-worker pacing rules, as pure functions of their inputs.

Both drivers call these (the simulator with simulated seconds and measured
transits, real processes with wall seconds and transit 0), so the values
here are the behaviour of both.
"""

import pytest

from repro.distributed import pacing
from repro.distributed.pacing import IDLE_PACE_CAP


class TestRequestTimeoutAndPace:
    @pytest.mark.parametrize(
        "node_cost, transit, timeout, pace",
        [
            # Coarse grain: one node cost, polls capped.
            (3.35, 0.002, 3.35, IDLE_PACE_CAP),
            # Figure 3 grain: one node cost both ways.
            (0.01, 0.002, 0.01, 0.01),
            # Nodes shorter than a round trip: two round trips.
            (0.001, 0.002, 4 * 0.002, 4 * 0.002),
            # A real process on one host passes transit 0.
            (0.01, 0.0, 0.01, 0.01),
        ],
    )
    def test_timeout_is_a_node_cost_floored_at_two_round_trips(
        self, node_cost, transit, timeout, pace
    ):
        assert pacing.request_timeout(node_cost, transit) == pytest.approx(timeout)
        assert pacing.idle_pace(node_cost, transit) == pytest.approx(pace)

    def test_no_node_cost_known_waits_the_cap(self):
        assert pacing.request_timeout(0.0, 0.002) == IDLE_PACE_CAP
        assert pacing.idle_pace(0.0, 0.0) == IDLE_PACE_CAP


class TestPushInterval:
    def test_coarse_grain_pushes_once_per_quarter_node(self):
        assert pacing.push_interval(3.35) == pytest.approx(0.25 * 3.35)

    @pytest.mark.parametrize("node_cost", [0.0, 0.001, 0.01, 0.4])
    def test_fine_grain_pushes_once_per_cap(self, node_cost):
        assert pacing.push_interval(node_cost) == IDLE_PACE_CAP


class TestStallThreshold:
    @pytest.mark.parametrize("node_cost", [0.001, 0.01, 3.35])
    def test_three_node_costs_with_no_news(self, node_cost):
        assert pacing.stall_threshold(node_cost, 10.0) == pytest.approx(3 * node_cost)

    def test_no_node_cost_waits_the_bootstrap_floor(self):
        assert pacing.stall_threshold(0.0, 10.0) == 10.0

    def test_zero_floor_means_no_time_condition(self):
        assert pacing.stall_threshold(0.0, 0.0) is None


class TestWalkPastIdlePeers:
    @pytest.mark.parametrize("node_cost", [0.001, 0.01])
    def test_fine_grain_never_walks(self, node_cost):
        assert pacing.walk_hops(node_cost, 0.002, 99) == 0
        assert pacing.walk_hops(node_cost, 0.0, 99) == 0

    def test_coarse_grain_walks(self):
        assert pacing.walk_hops(3.35, 0.002, 99) > 0
        assert pacing.walk_hops(3.35, 0.0, 99) > 0

    def test_no_node_cost_known_never_walks(self):
        assert pacing.walk_hops(0.0, 0.002, 99) == 0

    @pytest.mark.parametrize(
        "n_peers, hops", [(1, 1), (3, 2), (7, 3), (31, 5), (99, 7), (9999, 14)]
    )
    def test_hop_limit_is_the_peer_count_bit_length(self, n_peers, hops):
        assert pacing.walk_hops(3.35, 0.002, n_peers) == hops == n_peers.bit_length()

    def test_after_an_exhausted_walk_the_next_request_waits_one_and_a_half_pushes(self):
        assert pacing.EXHAUSTED_WALK_PUSH_INTERVALS == 1.5
        assert pacing.request_pause(3.35, 0.002, True) == pytest.approx(
            1.5 * pacing.push_interval(3.35)
        )
        # About three eighths of a node cost at the Table 1 grain.
        assert pacing.request_pause(3.35, 0.002, True) == pytest.approx(0.375 * 3.35)

    @pytest.mark.parametrize("node_cost", [0.001, 0.01, 3.35])
    def test_otherwise_requests_are_one_idle_pace_apart(self, node_cost):
        assert pacing.request_pause(node_cost, 0.002, False) == pacing.idle_pace(
            node_cost, 0.002
        )


class TestBootstrapAndBlankGate:
    @pytest.mark.parametrize(
        "node_cost, floor", [(0.0, 10.0), (0.01, 10.0), (3.35, 30 * 3.35)]
    )
    def test_bootstrap_floor(self, node_cost, floor):
        assert pacing.bootstrap_timeout(node_cost) == pytest.approx(floor)

    def test_explicit_bootstrap_timeout_replaces_the_floor(self):
        assert pacing.bootstrap_timeout(3.35, 2.0) == 2.0
        assert pacing.bootstrap_timeout(3.35, 0.0) == 0.0

    def test_worker_with_evidence_may_recover_and_forgets_its_blank_start(self):
        assert pacing.blank_gate(False, 4.0, 5.0, 10.0) == (True, None)

    def test_blank_worker_waits_the_bootstrap_timeout(self):
        # The first starved look starts the clock ...
        assert pacing.blank_gate(True, None, 2.0, 10.0) == (False, 2.0)
        # ... which runs from there, not from each look.
        assert pacing.blank_gate(True, 2.0, 11.9, 10.0) == (False, 2.0)
        assert pacing.blank_gate(True, 2.0, 12.0, 10.0) == (True, 2.0)


class TestPushTargets:
    def test_a_signal_is_fresh_for_one_request_timeout(self):
        starved = {"fresh": 9.0, "stale": 5.0}
        assert pacing.push_targets(starved, 10.0, 3.35) == ["fresh"]
        assert pacing.push_targets(starved, 12.4, 3.35) == []

    def test_most_recently_heard_first(self):
        starved = {"a": 8.0, "b": 9.5, "c": 9.0}
        assert pacing.push_targets(starved, 10.0, 3.35) == ["b", "c", "a"]

    def test_a_granted_peer_is_no_target(self):
        # The caller forgets a peer once it pushed to or granted it.
        starved = {"a": 9.0, "b": 9.5}
        first = pacing.push_targets(starved, 10.0, 3.35)[0]
        del starved[first]
        assert pacing.push_targets(starved, 10.0, 3.35) == ["a"]


class TestMovingAverage:
    def test_first_sample_seeds_the_average(self):
        assert pacing.moving_average(0.0, 0.02) == 0.02

    def test_later_samples_weigh_one_tenth(self):
        assert pacing.moving_average(0.01, 0.02) == pytest.approx(0.011)
