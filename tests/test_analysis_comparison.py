"""Tests for the numerical comparison (Figure 7 / Table IV machinery)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.comparison import (
    aggregate_reduction,
    average_latency_by_group_size,
    best_paxos_bcast_leader,
    compare_all_groups,
    compare_group,
    enumerate_groups,
)
from repro.analysis.ec2 import EC2_SITES, ec2_latency_matrix
from repro.analysis.latency_model import paxos_bcast_latency
from repro.bench.numerical import figure7_data, table2_rows, table4_rows


class TestGroupEnumeration:
    def test_counts_match_binomials(self):
        assert len(enumerate_groups(EC2_SITES, 3)) == math.comb(7, 3) == 35
        assert len(enumerate_groups(EC2_SITES, 5)) == math.comb(7, 5) == 21
        assert len(enumerate_groups(EC2_SITES, 7)) == 1

    def test_groups_preserve_site_order(self):
        groups = enumerate_groups(("A", "B", "C"), 2)
        assert groups == [("A", "B"), ("A", "C"), ("B", "C")]


class TestBestLeaderSelection:
    def test_best_leader_minimizes_average(self):
        matrix = ec2_latency_matrix(["CA", "VA", "IR", "JP", "SG"])
        best = best_paxos_bcast_leader(matrix)
        averages = []
        for leader in range(5):
            averages.append(
                sum(paxos_bcast_latency(matrix, origin, leader) for origin in range(5)) / 5
            )
        assert averages[best] == min(averages)

    def test_best_leader_for_the_five_site_group_is_ca_or_va(self):
        # The paper designates VA as the best leader experimentally; with the
        # published Table III averages the analytical optimum is a near-tie
        # between CA and VA, so accept either.
        matrix = ec2_latency_matrix(["CA", "VA", "IR", "JP", "SG"])
        assert matrix.sites[best_paxos_bcast_leader(matrix)] in {"CA", "VA"}


class TestGroupComparison:
    def test_three_replica_special_case_paxos_bcast_never_loses(self):
        """The paper: with three replicas and the best leader, Paxos-bcast is
        optimal, so Clock-RSM is never strictly better."""
        for group in compare_all_groups(3):
            for clock_ms, paxos_ms in zip(group.clock_rsm_ms, group.paxos_bcast_ms):
                assert clock_ms >= paxos_ms - 1e-9

    def test_compare_group_shape(self):
        comparison = compare_group(("CA", "VA", "IR", "JP", "SG"))
        assert comparison.size == 5
        assert comparison.paxos_bcast_leader in comparison.sites
        assert comparison.clock_rsm_highest >= comparison.clock_rsm_average
        assert comparison.paxos_bcast_highest >= comparison.paxos_bcast_average


class TestFigure7:
    def test_clock_rsm_wins_on_average_for_five_and_seven_replicas(self):
        rows = {entry.group_size: entry for entry in average_latency_by_group_size()}
        assert rows[5].clock_rsm_all < rows[5].paxos_bcast_all
        assert rows[7].clock_rsm_all < rows[7].paxos_bcast_all
        # ... and loses slightly with three replicas (the special case).
        assert rows[3].clock_rsm_all > rows[3].paxos_bcast_all

    def test_highest_latency_gap_is_wider_than_average_gap(self):
        """The paper: the improvement on the per-group worst replica is larger
        because Paxos-bcast latencies are more spread out."""
        rows = {entry.group_size: entry for entry in average_latency_by_group_size()}
        for size in (5, 7):
            average_gap = rows[size].paxos_bcast_all - rows[size].clock_rsm_all
            highest_gap = rows[size].paxos_bcast_highest - rows[size].clock_rsm_highest
            assert highest_gap > average_gap

    def test_bench_rows_are_well_formed(self):
        rows = figure7_data()
        assert [row["group_size"] for row in rows] == [3, 5, 7]
        assert rows[1]["groups"] == 21
        for row in rows:
            assert row["clock_rsm_highest_ms"] >= row["clock_rsm_all_ms"]


class TestTable4:
    def test_three_replica_row_matches_paper_shape(self):
        wins, losses = aggregate_reduction(3)
        assert wins.replica_fraction == 0.0
        assert losses.replica_fraction == 1.0
        # Paper: -9.9 ms / -6.2%; our Table III-derived numbers land close.
        assert -12.0 < losses.absolute_reduction_ms < -8.0
        assert -0.09 < losses.relative_reduction < -0.04

    def test_five_replica_row_matches_paper_shape(self):
        wins, losses = aggregate_reduction(5)
        # Paper: 68.6% of replicas improve by ~31.9 ms (15.2%).
        assert 0.6 < wins.replica_fraction < 0.8
        assert 20.0 < wins.absolute_reduction_ms < 45.0
        assert wins.relative_reduction > 0.10
        assert losses.absolute_reduction_ms < 0

    def test_seven_replica_row_matches_paper_shape(self):
        wins, losses = aggregate_reduction(7)
        # Paper: 85.7% of replicas improve by ~50.2 ms (21.5%).
        assert wins.replica_fraction == pytest.approx(6 / 7, abs=0.01)
        assert 35.0 < wins.absolute_reduction_ms < 65.0

    def test_bench_rows_have_both_buckets_per_size(self):
        rows = table4_rows()
        assert len(rows) == 6
        assert {row["bucket"] for row in rows} == {"clock-rsm lower", "clock-rsm higher"}
        for row in rows:
            assert 0.0 <= row["replica_percentage"] <= 100.0


class TestTable2Rows:
    def test_rows_cover_every_site_and_protocol(self):
        rows = table2_rows(["CA", "VA", "IR", "JP", "SG"], "VA")
        assert [row["site"] for row in rows] == ["CA", "VA", "IR", "JP", "SG"]
        for row in rows:
            assert row["paxos_ms"] >= row["paxos_bcast_ms"] - 1e-9
            low, high = row["mencius_bcast_balanced_ms"]
            assert low <= high
            assert row["clock_rsm_balanced_ms"] >= row["clock_rsm_imbalanced_ms"] - 1e-9
