"""The ``proc`` deployment backend: one OS process per replica, real TCP.

:class:`ProcessBackend` reads the same :class:`~repro.experiment.spec.
ExperimentSpec` as the sim and async backends and reduces the workers'
shipped payloads (see :mod:`repro.launch.worker`) to the uniform
:class:`~repro.experiment.result.ExperimentResult`.  What differs from the
async backend is *where* things run: every replica server and its site's
workload clients live in their own process, so protocol execution, state
machine application and serialization use real OS parallelism instead of
sharing one event loop.

Like the async backend, wall time is the clock: a ``time_scale`` divides
durations and think times going in and multiplies recorded latencies coming
back out.  Unlike the async backend, the spec's latency matrix is **not**
injected — messages cross the real loopback stack, which is the point — and
fault schedules are rejected outright (killing processes mid-run is the
supervisor's error path, not a workload feature yet).
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from ..checker.history import OpHistory
from ..errors import ConfigurationError
from ..experiment.result import ExperimentResult, build_result, split_metrics
from ..experiment.spec import ExperimentSpec
from ..types import CommandId, ReplicaId
from .supervisor import Supervisor


class ProcessBackend:
    """Runs experiments as one OS process per replica over real TCP.

    Args:
        time_scale: Divide durations and think times by this factor;
            recorded latencies are scaled back into spec-time units.
        submit_timeout: Per-command commit timeout in (unscaled) seconds.
    """

    name = "proc"

    def __init__(self, time_scale: float = 1.0, submit_timeout: float = 30.0) -> None:
        if time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")
        self.time_scale = time_scale
        self.submit_timeout = submit_timeout

    def _check_supported(self, spec: ExperimentSpec) -> None:
        if spec.faults:
            raise ConfigurationError(
                "the proc backend cannot inject fault schedules; run this "
                "spec on the sim or async backend"
            )
        if spec.cpu is not None:
            raise ConfigurationError(
                "the proc backend has no CPU cost model (real processes are "
                "the CPU); remove the [cpu] section or use the sim backend"
            )

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        return asyncio.run(self._run(spec))

    async def _run(self, spec: ExperimentSpec) -> ExperimentResult:
        self._check_supported(spec)
        loop = asyncio.get_running_loop()
        start_wall = loop.time()
        supervisor = Supervisor(
            spec, time_scale=self.time_scale, submit_timeout=self.submit_timeout
        )
        payloads = await supervisor.run()
        return self._assemble(spec, payloads, supervisor, loop.time() - start_wall)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _assemble(
        self,
        spec: ExperimentSpec,
        payloads: dict[ReplicaId, dict[str, Any]],
        supervisor: Supervisor,
        wall_clock_s: float,
    ) -> ExperimentResult:
        latencies: dict[ReplicaId, list[int]] = {}
        replica_metrics: dict[ReplicaId, dict[str, float]] = {}
        history: Optional[OpHistory] = OpHistory() if spec.record_history else None
        apply_orders: dict[ReplicaId, tuple[CommandId, ...]] = {}

        # Each worker times its history from its own start, and the workers
        # get the "run" message milliseconds apart.  They all run on this
        # host, where their loop clocks (time.monotonic) agree, so each
        # history is shifted onto the earliest start: otherwise the checker
        # compares one worker's instants with another's off by that gap, and
        # two overlapping operations can look ordered.
        base = min(
            (p["history_started_at"] for p in payloads.values() if "history_started_at" in p),
            default=0.0,
        )
        for rid in spec.cluster_spec().replica_ids:
            payload = payloads[rid]
            latencies[rid] = [int(v) for v in payload.get("latencies_us", [])]
            replica_metrics[rid] = {
                "executed": float(payload.get("executed", 0.0)),
                **split_metrics(payload.get("split"), self.time_scale),
            }
            if history is not None and payload.get("history") is not None:
                shift = round(
                    (payload["history_started_at"] - base) * self.time_scale * 1_000_000
                )
                for record in OpHistory.from_dict(payload["history"]).ops:
                    record.invoked_at += shift
                    if record.returned_at is not None:
                        record.returned_at += shift
                    history.add(record)
                apply_orders[rid] = tuple(
                    CommandId(client, seqno)
                    for client, seqno in payload.get("apply_order", [])
                )

        if history is not None:
            history.record_apply_orders(apply_orders)

        return build_result(
            spec,
            self.name,
            latencies,
            replica_metrics,
            {
                "seed": spec.seed,
                "time_scale": self.time_scale,
                "wall_clock_s": round(wall_clock_s, 3),
                # Real loopback TCP carries the messages: neither the spec's
                # latency matrix nor its synthetic jitter is injected.
                "latency_applied": False,
                "jitter_applied": False,
                "host": supervisor.processes.host,
                "workers": {
                    str(rid): dict(outcome)
                    for rid, outcome in sorted(supervisor.worker_exits.items())
                },
            },
            history,
        )


__all__ = ["ProcessBackend"]
