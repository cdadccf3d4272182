"""The paper's workload scenarios on the simulator.

:func:`build_workload` attaches the workload described by a
:class:`repro.experiment.WorkloadSpec` to a simulated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..metrics.collector import LatencyCollector
from ..sim.cluster import SimulatedCluster
from ..types import Micros, ms_to_micros
from .apps import payload_factory as app_payload_factory
from .generator import ClosedLoopClients, SaturatingClients

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
            generator = ClosedLoopClients(
                cluster,
                replica.replica_id,
                count,
                spec.payload_size,
                ms_to_micros(spec.think_time_min_ms),
                ms_to_micros(spec.think_time_max_ms),
                collector,
                payloads,
            )
        else:
            generator = SaturatingClients(
                cluster, replica.replica_id, spec.payload_size, count, collector, payloads
            )
        generator.start()
        generators.append(generator)
    return WorkloadHandle(collector, generators)


__all__ = ["WorkloadHandle", "build_workload"]
