"""Deploy an experiment spec on the discrete-event simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..checker.history import HistoryRecorder
from ..sim.cluster import SimulatedCluster
from ..sim.failures import FailureSchedule
from ..sim.network import NetworkOptions
from ..sim.node import CpuModel
from ..types import ReplicaId
from ..workload.apps import state_machine_factory
from ..workload.scenarios import WorkloadHandle, build_workload
from .result import ExperimentResult, build_result
from .spec import CpuSpec, ExperimentSpec


def _cpu_model(cpu: CpuSpec) -> CpuModel:
    return CpuModel(
        recv_fixed=cpu.recv_fixed,
        recv_per_byte=cpu.recv_per_byte,
        send_fixed=cpu.send_fixed,
        send_per_byte=cpu.send_per_byte,
        client_fixed=cpu.client_fixed,
    )


@dataclass
class PreparedSimRun:
    """One cluster with its workload and faults armed, awaiting the clock.

    :meth:`SimBackend.prepare` returns one of these; running the cluster's
    simulation environment for the spec's total runtime and calling
    :meth:`SimBackend.collect` turns it into an :class:`ExperimentResult`.
    """

    spec: ExperimentSpec
    cluster: SimulatedCluster
    handle: WorkloadHandle
    recorder: Optional[HistoryRecorder]


class SimBackend:
    """Runs experiments inside the deterministic discrete-event simulator."""

    name = "sim"

    def build_cluster(self, spec: ExperimentSpec) -> SimulatedCluster:
        """Wire the cluster a spec describes (without workload or faults)."""
        return SimulatedCluster(
            spec.cluster_spec(),
            spec.latency_matrix(),
            spec.protocol,
            spec.protocol_config(),
            seed=spec.seed,
            # Partitions buffer (and re-deliver on heal) rather than drop:
            # the paper assumes quasi-reliable TCP channels, where an outage
            # delays messages between correct replicas but never loses them.
            network_options=NetworkOptions(
                jitter_fraction=spec.jitter_fraction, partition_mode="buffer"
            ),
            clock_offsets=spec.clock_offsets(),
            clock_drift_ppm=spec.clock_drift_ppm(),
            cpu_model=_cpu_model(spec.cpu) if spec.cpu is not None else None,
            state_machine_factory=state_machine_factory(spec.workload.app),
            # Real command batching at the submission path (the CPU model's
            # own message-level batching composes with it, see sim.node).
            batching=spec.batching.options() if spec.batching is not None else None,
        )

    def prepare(self, spec: ExperimentSpec) -> PreparedSimRun:
        """Build the cluster and arm workload, history capture, and faults."""
        cluster = self.build_cluster(spec)
        recorder = HistoryRecorder(cluster) if spec.record_history else None
        handle = build_workload(cluster, spec.workload, warmup=spec.warmup_micros)
        if spec.faults:
            FailureSchedule.from_spec(spec.faults, cluster.spec).install(cluster)
        return PreparedSimRun(spec=spec, cluster=cluster, handle=handle, recorder=recorder)

    def collect(self, prepared: PreparedSimRun) -> ExperimentResult:
        """Stop the workload and summarize one finished run."""
        spec, cluster, handle = prepared.spec, prepared.cluster, prepared.handle
        handle.stop()
        if not spec.faults:
            # Fault schedules may leave replicas crashed or partitioned
            # mid-run; prefix consistency is then checked by dedicated tests,
            # not by every experiment run.
            cluster.assert_consistent_order()

        replica_metrics: dict[ReplicaId, dict[str, float]] = {}
        for rid, node in cluster.nodes.items():
            metrics: dict[str, float] = {
                "executed": float(node.replica.executed_count),
            }
            if spec.cpu is not None:
                metrics["utilization"] = round(
                    node.utilization(spec.total_runtime_micros), 3
                )
            replica_metrics[rid] = metrics

        return build_result(
            spec,
            self.name,
            {rid: handle.collector.latencies_micros(rid) for rid in cluster.nodes},
            replica_metrics,
            {"seed": spec.seed, "simulated_s": spec.warmup_s + spec.duration_s},
            prepared.recorder.finish() if prepared.recorder is not None else None,
        )

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        prepared = self.prepare(spec)
        prepared.cluster.run_for(spec.total_runtime_micros)
        return self.collect(prepared)


__all__ = ["PreparedSimRun", "SimBackend"]
