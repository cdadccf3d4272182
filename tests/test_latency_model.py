"""Tests for the analytical latency model (Table II)."""

from __future__ import annotations

import pytest

from repro.analysis.ec2 import ec2_latency_matrix
from repro.analysis.latency_model import (
    clock_rsm_balanced,
    clock_rsm_imbalanced,
    clock_rsm_light_imbalanced,
    clock_rsm_majority_replication,
    clock_rsm_prefix_replication_worst,
    clock_rsm_stable_order_best,
    clock_rsm_stable_order_worst,
    max_delay,
    median_delay,
    mencius_bcast_balanced_bounds,
    mencius_bcast_imbalanced,
    paxos_bcast_latency,
    paxos_latency,
    protocol_latency,
)
from repro.net.latency import LatencyMatrix
from repro.types import ms_to_micros


def uniform(n: int, one_way_ms: float = 50.0) -> LatencyMatrix:
    return LatencyMatrix.uniform([f"dc{i}" for i in range(n)], ms_to_micros(one_way_ms))


class TestHelpers:
    def test_median_delay_counts_self(self):
        matrix = uniform(5, 50.0)
        # Majority of five includes self plus the two nearest peers.
        assert median_delay(matrix, 0) == ms_to_micros(50.0)
        assert max_delay(matrix, 0) == ms_to_micros(50.0)

    def test_median_delay_three_replicas_is_nearest_peer(self):
        matrix = LatencyMatrix.from_rtt_ms(
            ["A", "B", "C"], {("A", "B"): 20.0, ("A", "C"): 100.0, ("B", "C"): 60.0}
        )
        assert median_delay(matrix, 0) == ms_to_micros(10.0)


class TestUniformLatencies:
    """With uniform inter-replica delay d, the formulas collapse to known values."""

    def test_clock_rsm_uniform(self):
        matrix = uniform(5)
        d = ms_to_micros(50.0)
        assert clock_rsm_majority_replication(matrix, 0) == 2 * d
        assert clock_rsm_stable_order_best(matrix, 0) == d
        assert clock_rsm_stable_order_worst(matrix, 0) == 2 * d
        assert clock_rsm_prefix_replication_worst(matrix, 0) == 2 * d
        assert clock_rsm_balanced(matrix, 0) == 2 * d
        assert clock_rsm_imbalanced(matrix, 0) == 2 * d

    def test_paxos_uniform(self):
        matrix = uniform(5)
        d = ms_to_micros(50.0)
        assert paxos_latency(matrix, origin=0, leader=0) == 2 * d
        assert paxos_latency(matrix, origin=1, leader=0) == 4 * d
        assert paxos_bcast_latency(matrix, origin=0, leader=0) == 2 * d
        assert paxos_bcast_latency(matrix, origin=1, leader=0) == 3 * d

    def test_mencius_uniform(self):
        matrix = uniform(5)
        d = ms_to_micros(50.0)
        assert mencius_bcast_imbalanced(matrix, 0) == 2 * d
        low, high = mencius_bcast_balanced_bounds(matrix, 0)
        assert low == 2 * d and high == 3 * d

    def test_clock_rsm_beats_paxos_bcast_at_non_leaders_with_uniform_latency(self):
        # The paper's intuition: with uniform latencies Clock-RSM always wins
        # at non-leader replicas (2d vs 3d) and ties at the leader.
        matrix = uniform(7)
        for origin in range(1, 7):
            assert clock_rsm_balanced(matrix, origin) < paxos_bcast_latency(matrix, origin, 0)
        assert clock_rsm_balanced(matrix, 0) == paxos_bcast_latency(matrix, 0, 0)


class TestEc2Placements:
    """Spot-check Table II instantiated with the paper's Table III data."""

    @pytest.fixture
    def five(self):
        return ec2_latency_matrix(["CA", "VA", "IR", "JP", "SG"])

    def test_paxos_leader_va(self, five):
        # Leader VA: one round trip to its majority {VA, CA, IR}.
        assert paxos_latency(five, origin=1, leader=1) == ms_to_micros(101.0)

    def test_paxos_nonleader_ca_with_leader_va(self, five):
        expected = ms_to_micros(2 * 41.5 + 101.0)
        assert paxos_latency(five, origin=0, leader=1) == expected

    def test_paxos_bcast_nonleader_ca_with_leader_va(self, five):
        # d(CA,VA) + median_k(d(VA,k) + d(k,CA)) = 41.5 + 135.5
        assert paxos_bcast_latency(five, origin=0, leader=1) == ms_to_micros(177.0)

    def test_clock_rsm_ca_balanced(self, five):
        # Dominated by the prefix-replication term (135.5 ms), cf. docs/PROTOCOLS.md,
        # "Commit latency (the paper's Table II)".
        assert clock_rsm_balanced(five, 0) == ms_to_micros(135.5)

    def test_clock_rsm_ca_imbalanced(self, five):
        # max(2 * median, max one-way) = max(125, 85.5).
        assert clock_rsm_imbalanced(five, 0) == ms_to_micros(125.0)

    def test_mencius_imbalanced_is_round_trip_to_farthest(self, five):
        assert mencius_bcast_imbalanced(five, 0) == ms_to_micros(171.0)

    def test_light_imbalanced_with_and_without_clocktime(self, five):
        without = clock_rsm_light_imbalanced(five, 0)
        with_ext = clock_rsm_light_imbalanced(five, 0, clocktime_interval=ms_to_micros(5.0))
        assert without == ms_to_micros(171.0)   # 2 * max one-way
        assert with_ext == ms_to_micros(125.0)  # max(2*median, max + Δ)
        assert with_ext < without

    def test_balanced_latency_at_least_imbalanced(self, five):
        for origin in range(5):
            assert clock_rsm_balanced(five, origin) >= clock_rsm_imbalanced(five, origin)


class TestProtocolLatencyDispatch:
    def test_dispatch_matches_specific_functions(self):
        matrix = ec2_latency_matrix(["CA", "VA", "IR"])
        assert protocol_latency("clock-rsm", matrix, 0) == clock_rsm_balanced(matrix, 0)
        # Paxos's leader is replica 0.
        assert protocol_latency("paxos", matrix, 2) == paxos_latency(matrix, 2, 0)
        assert protocol_latency("paxos-bcast", matrix, 2) == paxos_bcast_latency(matrix, 2, 0)
        low, high = mencius_bcast_balanced_bounds(matrix, 1)
        assert protocol_latency("mencius", matrix, 1) == (low + high) // 2
        assert protocol_latency("mencius-bcast", matrix, 1) == (low + high) // 2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            protocol_latency("zab", ec2_latency_matrix(["CA", "VA", "IR"]), 0)
