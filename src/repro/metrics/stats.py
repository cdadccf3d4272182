"""Latency statistics: percentiles, summaries, CDFs.

All sample inputs are in microseconds (the library's internal unit); the
summary objects expose milliseconds, which is what the paper's figures use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..types import Micros, micros_to_ms


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The *fraction*-quantile of *samples* using linear interpolation.

    ``fraction`` is in [0, 1]; e.g. 0.95 returns the 95th percentile, the
    statistic the paper plots atop each latency bar.
    """
    if not samples:
        raise ValueError("cannot take a percentile of an empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    low_value, high_value = float(ordered[low]), float(ordered[high])
    if low_value == high_value:
        return low_value
    value = low_value * (1.0 - weight) + high_value * weight
    # Clamp away one-ULP interpolation error so results stay within bounds.
    return min(max(value, low_value), high_value)


def cdf_points(samples: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) pairs.

    Matches the latency-distribution plots of Figures 3, 4 and 6.
    """
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    return [(float(value), (index + 1) / n) for index, value in enumerate(ordered)]


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Summary statistics of a latency sample set, in milliseconds."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    min_ms: float
    max_ms: float

    def as_row(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": round(self.mean_ms, 2),
            "p50_ms": round(self.p50_ms, 2),
            "p95_ms": round(self.p95_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
            "min_ms": round(self.min_ms, 2),
            "max_ms": round(self.max_ms, 2),
        }


def summarize_micros(samples_micros: Iterable[Micros]) -> LatencySummary:
    """Summarize microsecond latency samples into a millisecond summary."""
    values = [micros_to_ms(v) for v in samples_micros]
    if not values:
        raise ValueError("cannot summarize an empty sample set")
    return LatencySummary(
        count=len(values),
        mean_ms=sum(values) / len(values),
        p50_ms=percentile(values, 0.50),
        p95_ms=percentile(values, 0.95),
        p99_ms=percentile(values, 0.99),
        min_ms=min(values),
        max_ms=max(values),
    )


__all__ = [
    "percentile",
    "cdf_points",
    "LatencySummary",
    "summarize_micros",
]
