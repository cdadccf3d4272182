"""Fan an experiment spec out to N shard groups and aggregate the results.

:func:`shard_subspecs` turns one spec with a ``[sharding]`` table into N
plain sub-specs — one independent protocol group per shard over the same
site list, with the client population partitioned across the groups (the
workload table describes the *total* offered load; every shard always
receives at least one client per site).  Site-level faults apply to every
shard: crashing a site crashes that site's replica process in each group.

:class:`ShardedDeployment` runs the sub-specs:

* **sim** — every shard group is built on one shared
  :class:`~repro.sim.environment.SimulationEnvironment`, so the groups'
  events interleave deterministically in a single virtual timeline (one
  scheduler, N clusters), then each group is summarized as usual;
* **async** — the groups run as concurrent
  :class:`~repro.runtime.local.LocalAsyncCluster` deployments inside one
  event loop.

Either way, :func:`aggregate_results` reduces the per-shard results to one
:class:`~repro.experiment.result.ExperimentResult`: committed counts and
throughput sum, per-site latency summaries merge count-weighted, CDFs merge
exactly, and the full per-shard results stay attached under ``.shards``.

Each shard group is modelled with its own per-site node (its own CPU in the
simulator's cost model): operationally, one shard is one single-threaded
replica process per site, and sharding scales throughput by running N such
processes per site on N cores — which is exactly the state-partitioning
escape hatch the paper proposes for the single-total-order bottleneck.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import replace
from typing import Any

from ..errors import ConfigurationError
from ..experiment.async_backend import AsyncBackend
from ..experiment.deployment import build_backend
from ..experiment.result import ExperimentResult, SiteResult
from ..experiment.sim_backend import SimBackend
from ..experiment.spec import ExperimentSpec, ShardingSpec
from ..metrics.stats import merge_cdfs, merge_summaries
from ..sim.environment import SimulationEnvironment
from ..types import ReplicaId


def _split(total: int, shard: int, shards: int) -> int:
    """Shard *shard*'s portion of *total* clients (never below one)."""
    base, remainder = divmod(total, shards)
    return max(1, base + (1 if shard < remainder else 0))


def shard_subspecs(spec: ExperimentSpec) -> list[ExperimentSpec]:
    """The per-shard sub-specs of a sharded spec (single-group specs pass through)."""
    sharding = spec.sharding
    if sharding is None or sharding.shards == 1:
        return [replace(spec, sharding=None)]
    subspecs = []
    for shard in range(sharding.shards):
        workload = replace(
            spec.workload,
            clients_per_site=_split(
                spec.workload.clients_per_site, shard, sharding.shards
            ),
            outstanding_per_site=_split(
                spec.workload.outstanding_per_site, shard, sharding.shards
            ),
        )
        subspec = replace(
            spec,
            name=f"{spec.name}/shard{shard}",
            workload=workload,
            seed=sharding.seed_for(shard, spec.seed),
            sharding=None,
        )
        protocol = sharding.protocol_for(shard, spec.protocol)
        if protocol != spec.protocol:
            subspec = subspec.with_protocol(protocol, name=subspec.name)
        subspecs.append(subspec)
    return subspecs


def aggregate_results(
    spec: ExperimentSpec, backend: str, shard_results: list[ExperimentResult]
) -> ExperimentResult:
    """Reduce per-shard results to one aggregate :class:`ExperimentResult`."""
    if not shard_results:
        raise ConfigurationError("cannot aggregate zero shard results")
    sites: dict[str, SiteResult] = {}
    for site in spec.sites:
        parts = [result.sites[site] for result in shard_results if site in result.sites]
        if not parts:
            continue
        summaries = [part.summary for part in parts if part.summary is not None]
        cdf_parts = [
            (part.cdf_ms, part.summary.count)
            for part in parts
            if part.cdf_ms is not None and part.summary is not None
        ]
        sites[site] = SiteResult(
            site=site,
            replica_id=parts[0].replica_id,
            committed=sum(part.committed for part in parts),
            summary=merge_summaries(summaries) if summaries else None,
            cdf_ms=(
                merge_cdfs([cdf for cdf, _ in cdf_parts], [n for _, n in cdf_parts])
                if cdf_parts
                else None
            ),
        )

    # Per-replica metrics: replica ids coincide across shard groups (replica
    # r of every group lives at site r), so "executed" sums over the site's
    # shard processes, "utilization" averages over them, and the latency-split
    # means merge weighted by each shard's sample count.
    replica_metrics: dict[ReplicaId, dict[str, float]] = {}
    split_means = ("queue_wait_mean_us", "protocol_mean_us")
    for result in shard_results:
        for rid, metrics in result.replica_metrics.items():
            merged = replica_metrics.setdefault(rid, {})
            weight = metrics.get("split_samples", 0.0)
            for key, value in metrics.items():
                if key in split_means:
                    value *= weight  # de-averaged; re-divided below
                merged[key] = merged.get(key, 0.0) + value
    for metrics in replica_metrics.values():
        if "utilization" in metrics:
            metrics["utilization"] = round(
                metrics["utilization"] / len(shard_results), 3
            )
        samples = metrics.get("split_samples", 0.0)
        for key in split_means:
            if key in metrics:
                metrics[key] = round(metrics[key] / samples, 1) if samples else 0.0

    total = sum(result.total_committed for result in shard_results)
    sharding = spec.sharding or ShardingSpec()
    return ExperimentResult(
        name=spec.name,
        protocol=spec.protocol,
        backend=backend,
        duration_s=spec.duration_s,
        sites=sites,
        total_committed=total,
        throughput_kops=sum(result.throughput_kops for result in shard_results),
        replica_metrics=replica_metrics,
        metadata={
            "seed": spec.seed,
            "shards": sharding.shards,
            "placement": sharding.placement,
            "per_shard": [
                {
                    "shard": index,
                    "name": result.name,
                    "protocol": result.protocol,
                    "committed": result.total_committed,
                    "throughput_kops": round(result.throughput_kops, 3),
                }
                for index, result in enumerate(shard_results)
            ],
        },
        history=None,  # per-shard histories stay on .shards (no global order)
        shards=list(shard_results),
    )


class ShardedDeployment:
    """One sharded experiment spec bound to a backend, ready to run.

    Accepts the same backend names and options as
    :class:`~repro.experiment.deployment.Deployment`; plain
    ``Deployment(spec).run()`` delegates here whenever the spec carries a
    ``[sharding]`` table with more than one shard, so sharded specs run
    through the ordinary entry points (`repro run`, `repro check`, tests).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        backend: str = "sim",
        *,
        backend_instance: Any = None,
        **options: Any,
    ) -> None:
        # Backends come from the same registry (and take the same options)
        # as single-group deployments, so spec files move freely between
        # sharded and unsharded runs; Deployment passes its already-built
        # backend through instead of constructing a second one.
        self.spec = spec
        self.backend_name = backend
        self.subspecs = shard_subspecs(spec)
        self.backend = (
            backend_instance
            if backend_instance is not None
            else build_backend(backend, **options)
        )

    def run(self) -> ExperimentResult:
        """Deploy every shard group, run them together, aggregate the results."""
        from ..launch.backend import ProcessBackend  # lazy: avoids a cycle

        if isinstance(self.backend, SimBackend):
            shard_results = self._run_sim()
        elif isinstance(self.backend, (AsyncBackend, ProcessBackend)):
            # Both expose ``run_in_loop``; gathering them runs every shard
            # group concurrently — as coroutine sets sharing one loop on the
            # async backend, as independent process groups on proc (each
            # shard group gets its own supervisor and worker processes).
            shard_results = self._run_async()
        else:
            raise ConfigurationError(
                f"the {self.backend_name!r} backend does not support sharded "
                "deployments"
            )
        return aggregate_results(self.spec, self.backend_name, shard_results)

    # -- backends ------------------------------------------------------------

    def _run_sim(self) -> list[ExperimentResult]:
        # One scheduler: every shard group shares a single simulation
        # environment, so their events interleave in one virtual timeline and
        # one seeded random source keeps the run deterministic.  The shared
        # stream's seed mixes every shard's seed, so a per-shard seed
        # override changes the run on this backend too (the async backend
        # additionally gives each shard fully independent client streams).
        env = SimulationEnvironment(
            seed=zlib.crc32(repr([sub.seed for sub in self.subspecs]).encode())
        )
        prepared = [self.backend.prepare(sub, env=env) for sub in self.subspecs]
        env.run_for(self.spec.total_runtime_micros)
        return [self.backend.collect(run) for run in prepared]

    def _run_async(self) -> list[ExperimentResult]:
        async def run_all() -> list[ExperimentResult]:
            return list(
                await asyncio.gather(
                    *(self.backend.run_in_loop(sub) for sub in self.subspecs)
                )
            )

        return asyncio.run(run_all())


__all__ = ["ShardedDeployment", "aggregate_results", "shard_subspecs"]
