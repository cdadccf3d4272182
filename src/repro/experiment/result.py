"""The uniform result of one experiment run, backend-agnostic.

All three backends (``sim``, ``async``, ``proc``) hand what they measured to
:func:`build_result`, which reduces it to an :class:`ExperimentResult`:
per-site commit-latency summaries (and optional CDFs), committed-command
counts, aggregate throughput, and per-replica metrics.  Consumers — the CLI,
the paper figures, tests — never need to know which backend produced a
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from ..checker.history import OpHistory
from ..metrics.stats import LatencySummary, cdf_points, summarize_micros
from ..types import Micros, ReplicaId, micros_to_ms
from .spec import ExperimentSpec


@dataclass
class SiteResult:
    """Measurements taken at one site (its originating replica)."""

    site: str
    replica_id: ReplicaId
    committed: int
    summary: Optional[LatencySummary] = None
    cdf_ms: Optional[list[tuple[float, float]]] = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "site": self.site,
            "replica_id": self.replica_id,
            "committed": self.committed,
        }
        if self.summary is not None:
            data["latency"] = self.summary.as_row()
        if self.cdf_ms is not None:
            data["cdf_ms"] = self.cdf_ms
        return data


@dataclass
class ExperimentResult:
    """What one deployment run measured, in the same shape for all backends."""

    name: str
    protocol: str
    backend: str
    duration_s: float
    sites: dict[str, SiteResult]
    total_committed: int
    throughput_kops: float
    replica_metrics: dict[ReplicaId, dict[str, float]] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)
    #: Operation history (set when the spec enabled ``record_history``).
    history: Optional[OpHistory] = None

    # -- latency accessors -------------------------------------------------

    def summary(self, site: str) -> LatencySummary:
        result = self.sites[site].summary
        if result is None:
            raise KeyError(f"no latency samples recorded at {site!r}")
        return result

    def mean_ms(self, site: str) -> float:
        return self.summary(site).mean_ms

    def p95_ms(self, site: str) -> float:
        return self.summary(site).p95_ms

    def average_over_sites(self) -> float:
        values = [r.summary.mean_ms for r in self.sites.values() if r.summary is not None]
        if not values:
            raise ValueError(f"experiment {self.name!r} recorded no latency samples")
        return sum(values) / len(values)

    def latency_split(self) -> Optional[dict[str, float]]:
        """The queue-wait vs protocol-time split, averaged over replicas.

        Backends that instrument their drivers (async, proc) report
        per-replica ``queue_wait_mean_us`` / ``protocol_mean_us`` /
        ``split_samples`` metrics; this reduces them to one sample-weighted
        aggregate, or ``None`` when the backend recorded no split (sim).
        """
        queue_total = protocol_total = samples = 0.0
        for metrics in self.replica_metrics.values():
            n = metrics.get("split_samples", 0.0)
            if n <= 0:
                continue
            queue_total += metrics.get("queue_wait_mean_us", 0.0) * n
            protocol_total += metrics.get("protocol_mean_us", 0.0) * n
            samples += n
        if samples == 0:
            return None
        return {
            "queue_wait_mean_us": round(queue_total / samples, 1),
            "protocol_mean_us": round(protocol_total / samples, 1),
            "samples": samples,
        }

    # -- reporting ---------------------------------------------------------

    def per_site_rows(self) -> list[dict[str, Any]]:
        """Rows for :func:`repro.bench.reporting.format_table`."""
        rows = []
        for site, result in self.sites.items():
            row: dict[str, Any] = {"site": site, "committed": result.committed}
            if result.summary is not None:
                row["mean_ms"] = round(result.summary.mean_ms, 1)
                row["p95_ms"] = round(result.summary.p95_ms, 1)
            rows.append(row)
        return rows

    def to_dict(self) -> dict[str, Any]:
        data = {
            "name": self.name,
            "protocol": self.protocol,
            "backend": self.backend,
            "duration_s": self.duration_s,
            "total_committed": self.total_committed,
            "throughput_kops": round(self.throughput_kops, 3),
            "sites": {site: result.to_dict() for site, result in self.sites.items()},
            "replica_metrics": {
                str(rid): metrics for rid, metrics in self.replica_metrics.items()
            },
            "metadata": self.metadata,
        }
        if self.history is not None:
            # A size summary only; OpHistory.to_dict() serializes full events.
            data["history"] = {
                "ops": len(self.history),
                "completed": self.history.count("ok"),
                "pending": self.history.count("pending"),
                "failed": self.history.count("fail"),
            }
        return data


def split_metrics(
    split: Optional[Mapping[str, float]], time_scale: float
) -> dict[str, float]:
    """A live driver's queue-wait/protocol split as ``replica_metrics`` entries.

    ``split`` is :meth:`repro.runtime.driver.ReplicaDriver.latency_split`
    (wall seconds, ``None`` before the first reply); the means come back in
    spec-time microseconds like every recorded latency.
    """
    if split is None:
        return {}
    to_us = 1_000_000.0 * time_scale
    return {
        "queue_wait_mean_us": round(split["queue_wait_s"] * to_us, 1),
        "protocol_mean_us": round(split["protocol_s"] * to_us, 1),
        "split_samples": float(split["samples"]),
    }


def build_result(
    spec: ExperimentSpec,
    backend: str,
    latencies_by_replica: Mapping[ReplicaId, Sequence[Micros]],
    replica_metrics: dict[ReplicaId, dict[str, float]],
    metadata: dict[str, Any],
    history: Optional[OpHistory] = None,
) -> ExperimentResult:
    """Reduce one run's raw measurements to the uniform result.

    ``latencies_by_replica`` holds the spec-time commit latencies (µs)
    recorded at each originating replica inside the measurement window;
    replicas without samples may be missing.
    """
    sites: dict[str, SiteResult] = {}
    total = 0
    for replica_spec in spec.cluster_spec().replicas:
        latencies = latencies_by_replica.get(replica_spec.replica_id, ())
        total += len(latencies)
        summary: Optional[LatencySummary] = None
        cdf = None
        if latencies:
            summary = summarize_micros(latencies)
            if replica_spec.site in spec.cdf_sites:
                cdf = cdf_points([micros_to_ms(v) for v in latencies])
        sites[replica_spec.site] = SiteResult(
            site=replica_spec.site,
            replica_id=replica_spec.replica_id,
            committed=len(latencies),
            summary=summary,
            cdf_ms=cdf,
        )
    return ExperimentResult(
        name=spec.name,
        protocol=spec.protocol,
        backend=backend,
        duration_s=spec.duration_s,
        sites=sites,
        total_committed=total,
        throughput_kops=total / spec.duration_s / 1_000.0,
        replica_metrics=replica_metrics,
        metadata=metadata,
        history=history,
    )


__all__ = ["SiteResult", "ExperimentResult", "build_result", "split_metrics"]
