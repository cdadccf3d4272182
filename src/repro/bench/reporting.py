"""Plain-text reporting of experiment results.

The harness prints the same rows/series the paper's tables and figures show,
so a benchmark run's output can be compared side by side with the paper (see
docs/PERFORMANCE.md, "What maps to which paper figure").
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .latency_experiments import LatencyExperimentResult
from .throughput import ThroughputResult


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of homogeneous dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines) + "\n"


def format_latency_table(
    results: Mapping[str, LatencyExperimentResult], sites: Sequence[str], title: str = ""
) -> str:
    """Per-site mean and 95th-percentile latency for every protocol."""
    rows = []
    for protocol, result in results.items():
        for site in sites:
            summary = result.summaries.get(site)
            if summary is None:
                continue
            rows.append(
                {
                    "protocol": protocol,
                    "site": site,
                    "mean_ms": round(summary.mean_ms, 1),
                    "p95_ms": round(summary.p95_ms, 1),
                    "count": summary.count,
                }
            )
    return format_table(rows, title)


def format_cdf(
    cdfs: Mapping[str, list[tuple[float, float]]],
    title: str = "",
    fractions: Iterable[float] = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99),
) -> str:
    """Summarize latency CDFs at a fixed set of cumulative fractions."""
    rows = []
    for protocol, points in cdfs.items():
        if not points:
            continue
        row: dict[str, object] = {"protocol": protocol}
        for fraction in fractions:
            value = next((v for v, cumulative in points if cumulative >= fraction), points[-1][0])
            row[f"p{int(fraction * 100)}"] = round(value, 1)
        rows.append(row)
    return format_table(rows, title)


def format_throughput(results: Sequence[ThroughputResult], title: str = "") -> str:
    """Figure 8 series: throughput (kop/s) per protocol and command size."""
    rows = [
        {
            "command_size": result.command_size,
            "protocol": result.protocol,
            "throughput_kops": round(result.throughput_kops, 1),
            "committed": result.committed,
            "max_replica_utilization": max(result.replica_utilization.values()),
        }
        for result in results
    ]
    return format_table(rows, title)


__all__ = ["format_table", "format_latency_table", "format_cdf", "format_throughput"]
