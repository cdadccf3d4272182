"""Measurement utilities: latency collection, statistics, CDFs."""

from .collector import LatencyCollector
from .stats import LatencySummary, cdf_points, percentile, summarize_micros

__all__ = [
    "LatencyCollector",
    "LatencySummary",
    "percentile",
    "cdf_points",
    "summarize_micros",
]
