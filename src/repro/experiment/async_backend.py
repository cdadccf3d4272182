"""Deploy an experiment spec on the asyncio runtime.

The asyncio backend runs the very same sans-IO protocol objects as live
services inside one event loop (:class:`~repro.runtime.local.LocalAsyncCluster`),
with the spec's latency matrix injected into message delivery and real
asyncio client tasks playing the workload.  Because wide-area delays at real
scale make wall-clock runs slow, the backend supports a ``time_scale``: all
delays, think times, clock offsets and durations are divided by it, and the
recorded latencies are multiplied back, so the same spec produces results in
the same units as the simulator backend.

Fault schedules run here too: the same :class:`~repro.experiment.spec.FaultSpec`
events that drive the simulator (crash, recover — optionally with rejoin —,
partition/heal, isolate, clock-jump) are scheduled as event-loop timers
against the live cluster, with times divided by the ``time_scale`` like
every other delay.  Fault kinds this backend has no implementation for are
rejected at validation time, never silently dropped.  The CPU cost model
remains simulator-only (the real event loop is the CPU).  A spec's synthetic
``jitter_fraction`` is not injected either — the live event loop contributes
its own scheduling jitter (the result's metadata records
``jitter_applied: False``).
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..net.latency import LatencyMatrix
from ..runtime.local import LocalAsyncCluster
from ..types import ReplicaId, micros_to_seconds
from ..workload.apps import state_machine_factory
from .spec import ExperimentSpec
from .walltime import clock_factory, scaled_batching, scaled_protocol_config

if TYPE_CHECKING:
    from .result import ExperimentResult

#: Fault kinds this backend knows how to inject.  Kinds outside this set are
#: a configuration error, so new FAULT_KINDS entries can never be silently
#: ignored on the live runtime.
ASYNC_FAULT_KINDS: frozenset[str] = frozenset(
    {"crash", "recover", "partition", "isolate", "clock-jump"}
)


def _scaled_matrix(matrix: LatencyMatrix, scale: float) -> LatencyMatrix:
    if scale == 1:
        return matrix
    return LatencyMatrix(
        matrix.sites,
        tuple(tuple(int(delay / scale) for delay in row) for row in matrix.one_way),
    )


class AsyncBackend:
    """Runs experiments as live asyncio services in the current process.

    Args:
        time_scale: Divide every delay and duration by this factor to keep
            wall-clock runtime manageable; recorded latencies are scaled back
            so results stay in simulated-time units.
        submit_timeout: Per-command commit timeout in (unscaled) seconds.
    """

    name = "async"

    def __init__(self, time_scale: float = 1.0, submit_timeout: float = 30.0) -> None:
        if time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")
        self.time_scale = time_scale
        self.submit_timeout = submit_timeout

    # ------------------------------------------------------------------
    # Cluster construction
    # ------------------------------------------------------------------

    def build_cluster(self, spec: ExperimentSpec) -> LocalAsyncCluster:
        """Wire the asyncio cluster a spec describes (without workload)."""
        self._check_supported(spec)
        return LocalAsyncCluster(
            spec.protocol,
            spec.cluster_spec(),
            latency=_scaled_matrix(spec.latency_matrix(), self.time_scale),
            protocol_config=scaled_protocol_config(spec, self.time_scale),
            state_machine_factory=state_machine_factory(spec.workload.app),
            clock_factory=clock_factory(spec, self.time_scale),
            batching=scaled_batching(spec, self.time_scale),
        )

    def _check_supported(self, spec: ExperimentSpec) -> None:
        unsupported = sorted(
            {fault.kind for fault in spec.faults} - ASYNC_FAULT_KINDS
        )
        if unsupported:
            raise ConfigurationError(
                f"the async backend cannot inject fault kinds {unsupported}; "
                "run this spec on the sim backend"
            )
        if spec.cpu is not None:
            raise ConfigurationError(
                "the async backend has no CPU cost model (the real event loop "
                "is the CPU); remove the [cpu] section or use the sim backend"
            )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        return asyncio.run(self._run(spec))

    async def _run(self, spec: ExperimentSpec) -> ExperimentResult:
        # What only a whole run uses (the workload, the fault schedule, the
        # result) is imported here, before the cluster starts: building a
        # cluster does not load it, and nothing is imported inside the run.
        from ..sim.failures import FailureSchedule
        from ..workload.live import LiveClients
        from .result import build_result, split_metrics

        cluster = self.build_cluster(spec)  # validates backend support
        loop = asyncio.get_running_loop()
        clients = LiveClients(spec, self.time_scale, self.submit_timeout)
        faults = FailureSchedule.from_spec(spec.faults, cluster.spec, self.time_scale)
        fault_handles: list[asyncio.TimerHandle] = []
        async with cluster:
            faults.install(
                cluster,
                lambda at, thunk: fault_handles.append(
                    loop.call_later(micros_to_seconds(at), thunk)
                ),
            )
            for replica_spec in cluster.spec.replicas:
                clients.attach(
                    replica_spec.replica_id,
                    replica_spec.site,
                    cluster.servers[replica_spec.replica_id].submit,
                )
            await clients.window()
            # Faults scheduled past the end of the run (e.g. a heal_at after
            # duration_s) must not fire into the tear-down.
            for handle in fault_handles:
                handle.cancel()
            await clients.drain()

            replica_metrics: dict[ReplicaId, dict[str, float]] = {
                rid: {
                    "executed": float(server.replica.executed_count),
                    **split_metrics(server.driver.latency_split(), self.time_scale),
                }
                for rid, server in cluster.servers.items()
            }
            if clients.history is not None:
                clients.history.record_apply_orders(
                    {
                        rid: tuple(server.replica.execution_order)
                        for rid, server in cluster.servers.items()
                    }
                )

        return build_result(
            spec,
            self.name,
            {
                rid: clients.collector.latencies_micros(rid)
                for rid in cluster.spec.replica_ids
            },
            replica_metrics,
            {
                "seed": spec.seed,
                "time_scale": self.time_scale,
                "wall_clock_s": clients.wall_clock_s(),
                # The spec's synthetic jitter is not injected here: the live
                # event loop contributes its own natural scheduling jitter.
                "jitter_applied": False,
            },
            clients.history,
        )


__all__ = ["ASYNC_FAULT_KINDS", "AsyncBackend"]
