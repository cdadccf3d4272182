"""Tests for latency statistics and collectors."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.collector import LatencyCollector
from repro.metrics.stats import cdf_points, percentile, summarize_micros
from repro.types import CommandId


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 0.25) == 2.5

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0.0) == 1
        assert percentile(data, 1.0) == 9

    def test_single_sample(self):
        assert percentile([7], 0.95) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_subnormal=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_percentile_bounds_and_monotonicity(self, samples):
        p50 = percentile(samples, 0.5)
        p95 = percentile(samples, 0.95)
        assert min(samples) <= p50 <= p95 <= max(samples)


class TestCdf:
    def test_cdf_points_reach_one(self):
        points = cdf_points([3, 1, 2])
        assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (3.0, 1.0)]

    def test_empty_cdf(self):
        assert cdf_points([]) == []


class TestSummaries:
    def test_summarize_micros_converts_to_ms(self):
        summary = summarize_micros([100_000, 200_000, 300_000])
        assert summary.count == 3
        assert summary.mean_ms == pytest.approx(200.0)
        assert summary.min_ms == 100.0
        assert summary.max_ms == 300.0
        assert summary.p50_ms == 200.0
        row = summary.as_row()
        assert row["count"] == 3 and row["p95_ms"] >= row["p50_ms"]

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            summarize_micros([])


class TestLatencyCollector:
    def test_records_latency_per_origin_replica(self):
        collector = LatencyCollector()
        collector.record_submit(CommandId("a", 1), replica_id=0, time=1_000)
        collector.record_submit(CommandId("b", 1), replica_id=1, time=2_000)
        collector.record_commit(CommandId("a", 1), time=101_000)
        collector.record_commit(CommandId("b", 1), time=52_000)
        assert collector.latencies_micros(0) == [100_000]
        assert collector.latencies_micros(1) == [50_000]
        assert collector.count() == 2
        assert collector.count(0) == 1
        assert collector.summary(0).mean_ms == 100.0

    def test_warmup_filters_early_submissions(self):
        collector = LatencyCollector(warmup_until=10_000)
        collector.record_submit(CommandId("a", 1), 0, time=5_000)
        collector.record_commit(CommandId("a", 1), time=20_000)
        collector.record_submit(CommandId("a", 2), 0, time=15_000)
        collector.record_commit(CommandId("a", 2), time=25_000)
        assert collector.count(0) == 1

    def test_unknown_commit_is_ignored(self):
        collector = LatencyCollector()
        collector.record_commit(CommandId("ghost", 1), time=5)
        assert collector.count() == 0

    def test_all_latencies_and_per_replica_counts(self):
        collector = LatencyCollector()
        for seq in range(10):
            collector.record_submit(CommandId("a", seq), seq % 2, time=0)
            collector.record_commit(CommandId("a", seq), time=(seq + 1) * 1_000)
        assert len(collector.all_latencies_micros()) == 10
        assert collector.count(0) == collector.count(1) == 5
