"""Tests for the one-way latency matrix and the EC2 (Table III) data."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.ec2 import EC2_RTT_MS, EC2_SITES, ec2_latency_matrix
from repro.errors import ConfigurationError
from repro.net.latency import LatencyMatrix
from repro.types import ms_to_micros


class TestLatencyMatrixConstruction:
    def test_from_rtt_ms_halves_round_trips(self):
        matrix = LatencyMatrix.from_rtt_ms(["A", "B"], {("A", "B"): 100.0})
        assert matrix.delay(0, 1) == ms_to_micros(50.0)
        assert matrix.delay(1, 0) == ms_to_micros(50.0)
        assert matrix.delay(0, 0) == 0

    def test_from_rtt_ms_ignores_pairs_of_other_sites(self):
        rtts = {("A", "B"): 100.0, ("A", "Z"): 4.0, ("Y", "Z"): 8.0}
        matrix = LatencyMatrix.from_rtt_ms(["B", "A"], rtts)
        assert matrix.sites == ("B", "A")
        assert matrix.delay(0, 1) == ms_to_micros(50.0)

    def test_missing_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyMatrix.from_rtt_ms(["A", "B", "C"], {("A", "B"): 10.0})

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyMatrix.from_rtt_ms(["A", "A"], {("A", "A"): 1.0})

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyMatrix(("A", "B"), ((0, 10), (20, 0)))

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyMatrix(("A", "B"), ((0, -1), (-1, 0)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyMatrix(("A", "B"), ((0, 1),))

    def test_uniform(self):
        matrix = LatencyMatrix.uniform(["A", "B", "C"], one_way=500)
        assert matrix.delay(0, 1) == 500
        assert matrix.delay(2, 1) == 500
        assert matrix.delay(1, 1) == 0


def _between(matrix: LatencyMatrix, a: str, b: str) -> int:
    return matrix.delay(matrix.site_index(a), matrix.site_index(b))


class TestLatencyMatrixQueries:
    def test_site_index_and_delay_between_sites(self):
        matrix = ec2_latency_matrix()
        assert matrix.site_index("CA") == 0
        assert _between(matrix, "CA", "VA") == ms_to_micros(83.0 / 2)
        with pytest.raises(ConfigurationError):
            matrix.site_index("nowhere")

    def test_restricted_to_preserves_pairwise_delays(self):
        full = ec2_latency_matrix()
        sub = full.restricted_to(["JP", "CA", "SG"])
        assert sub.sites == ("JP", "CA", "SG")
        assert sub.delay(0, 1) == _between(full, "JP", "CA")
        assert sub.delay(0, 2) == _between(full, "JP", "SG")

    def test_median_delay_includes_self(self):
        # Three replicas: the majority-forming delay is the nearest peer.
        matrix = LatencyMatrix.from_rtt_ms(
            ["A", "B", "C"], {("A", "B"): 20.0, ("A", "C"): 100.0, ("B", "C"): 60.0}
        )
        assert matrix.median_delay_from(0) == ms_to_micros(10.0)
        assert matrix.max_delay_from(0) == ms_to_micros(50.0)


class TestEc2Data:
    def test_all_21_pairs_present(self):
        assert len(EC2_RTT_MS) == 21
        matrix = ec2_latency_matrix()
        assert matrix.size == 7
        assert matrix.sites == EC2_SITES

    def test_known_values_from_table3(self):
        matrix = ec2_latency_matrix()
        assert _between(matrix, "CA", "VA") == ms_to_micros(41.5)
        assert _between(matrix, "IR", "JP") == ms_to_micros(140.0)
        assert _between(matrix, "SG", "BR") == ms_to_micros(184.5)

    def test_a_site_is_no_distance_from_itself(self):
        matrix = ec2_latency_matrix()
        assert [matrix.delay(i, i) for i in range(len(EC2_SITES))] == [0] * len(EC2_SITES)

    def test_subset_selection(self):
        matrix = ec2_latency_matrix(["CA", "VA", "IR"])
        assert matrix.sites == ("CA", "VA", "IR")

    @given(st.permutations(list(EC2_SITES)))
    def test_symmetry_holds_for_any_ordering(self, order):
        matrix = ec2_latency_matrix(order)
        for i in range(matrix.size):
            for j in range(matrix.size):
                assert matrix.delay(i, j) == matrix.delay(j, i)
