"""The paper's workload scenarios on the simulator.

Besides the scenario-specific helpers for scripts and tests,
:func:`build_workload` attaches the workload described by a
:class:`repro.experiment.WorkloadSpec` to a simulated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..metrics.collector import LatencyCollector
from ..sim.cluster import SimulatedCluster
from ..types import Micros, ReplicaId, ms_to_micros
from .apps import payload_factory as app_payload_factory
from .generator import ClosedLoopClients, SaturatingClients, WorkloadOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiment imports us)
    from ..experiment.spec import WorkloadSpec


@dataclass
class WorkloadHandle:
    """A started workload plus its latency collector."""

    collector: LatencyCollector
    generators: list

    def stop(self) -> None:
        for generator in self.generators:
            generator.stop()


def balanced_workload(
    cluster: SimulatedCluster,
    options: WorkloadOptions = WorkloadOptions(),
    warmup: Micros = 0,
) -> WorkloadHandle:
    """Clients of every replica issue requests simultaneously (Figures 1-4)."""
    collector = LatencyCollector(warmup_until=warmup)
    generators = []
    for replica_id in cluster.spec.replica_ids:
        generator = ClosedLoopClients(cluster, replica_id, options, collector)
        generator.start()
        generators.append(generator)
    return WorkloadHandle(collector, generators)


def imbalanced_workload(
    cluster: SimulatedCluster,
    origin: ReplicaId,
    options: WorkloadOptions = WorkloadOptions(),
    warmup: Micros = 0,
) -> WorkloadHandle:
    """Only one replica serves client requests (Figures 5-6)."""
    collector = LatencyCollector(warmup_until=warmup)
    generator = ClosedLoopClients(cluster, origin, options, collector)
    generator.start()
    return WorkloadHandle(collector, [generator])


def saturating_workload(
    cluster: SimulatedCluster,
    payload_size: int,
    window_per_replica: int = 64,
    replicas: Optional[Sequence[ReplicaId]] = None,
    warmup: Micros = 0,
    payload_factory=None,
) -> WorkloadHandle:
    """Saturate every replica with outstanding commands (Figure 8)."""
    collector = LatencyCollector(warmup_until=warmup)
    generators = []
    for replica_id in replicas if replicas is not None else cluster.spec.replica_ids:
        generator = SaturatingClients(
            cluster,
            replica_id,
            payload_size,
            window=window_per_replica,
            collector=collector,
            payload_factory=payload_factory,
        )
        generator.start()
        generators.append(generator)
    return WorkloadHandle(collector, generators)


def build_workload(
    cluster: SimulatedCluster, spec: "WorkloadSpec", warmup: Micros = 0
) -> WorkloadHandle:
    """Attach the workload described by an experiment spec to *cluster*.

    Which sites host clients, how many, and whether they think comes from
    :meth:`WorkloadSpec.population` — the same answer the live backends'
    client engine (:mod:`repro.workload.live`) gets.
    """
    collector = LatencyCollector(warmup_until=warmup)
    payloads = app_payload_factory(spec.app, spec.payload_size)
    generators: list = []
    for replica in cluster.spec.replicas:
        population = spec.population(replica.site)
        if population is None:
            continue
        count, think = population
        if think:
            options = WorkloadOptions(
                clients_per_replica=count,
                payload_size=spec.payload_size,
                think_time_min=ms_to_micros(spec.think_time_min_ms),
                think_time_max=ms_to_micros(spec.think_time_max_ms),
                payload_factory=payloads,
            )
            generator = ClosedLoopClients(cluster, replica.replica_id, options, collector)
        else:
            generator = SaturatingClients(
                cluster, replica.replica_id, spec.payload_size, count, collector, payloads
            )
        generator.start()
        generators.append(generator)
    return WorkloadHandle(collector, generators)


__all__ = [
    "WorkloadHandle",
    "balanced_workload",
    "imbalanced_workload",
    "saturating_workload",
    "build_workload",
]
