"""Measurement utilities: latency collection, statistics, CDFs."""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".collector": ("LatencyCollector",),
        ".stats": ("LatencySummary", "cdf_points", "percentile", "summarize_micros"),
    },
)

__all__ = [
    "LatencyCollector",
    "LatencySummary",
    "percentile",
    "cdf_points",
    "summarize_micros",
]
