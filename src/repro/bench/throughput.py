"""Throughput experiment (Figure 8).

The paper saturates five replicas on a local Gigabit cluster with commands of
10, 100 and 1000 bytes and reports committed commands per second; CPU (mostly
message handling) is the bottleneck.  We reproduce the setup with the
simulator's CPU/batching cost model on a negligible-latency network: every
replica is saturated by window-based clients, and throughput is the number of
commands committed at the originating replicas during the measurement window.

Like the latency harness, each run is expressed as a declarative
:class:`~repro.experiment.ExperimentSpec` (saturating workload, uniform
local-cluster latency, CPU cost model) executed through
:class:`~repro.experiment.Deployment` on the simulator backend — see
:func:`throughput_spec`.

Absolute numbers depend on the CPU cost constants (below; see
docs/PERFORMANCE.md, "What maps to which paper figure"); the
protocol-to-protocol ratios and the crossover between small and large
commands are the reproduced result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..experiment.deployment import Deployment
from ..experiment.spec import CpuSpec, ExperimentSpec, WorkloadSpec
from ..protocols.registry import protocol_capabilities
from ..sim.node import CpuModel
from ..types import Micros, ms_to_micros, seconds_to_micros

#: Protocols shown in Figure 8.
THROUGHPUT_PROTOCOLS: tuple[str, ...] = ("clock-rsm", "mencius-bcast", "paxos", "paxos-bcast")

#: Command sizes shown in Figure 8 (bytes).
COMMAND_SIZES: tuple[int, ...] = (10, 100, 1000)

#: Local-cluster one-way latency (the paper's Gigabit LAN, ~0.1 ms RTT).
LOCAL_ONE_WAY_DELAY: Micros = 50

#: CPU model used for the throughput experiments.  The constants are scaled
#: so that a single run saturates within a short simulated window; only the
#: relative costs (fixed-per-message vs per-byte) shape the results.
DEFAULT_CPU_MODEL = CpuModel(
    recv_fixed=20.0,
    recv_per_byte=0.03,
    send_fixed=20.0,
    send_per_byte=0.03,
    client_fixed=5.0,
)


@dataclass(frozen=True)
class ThroughputResult:
    """Throughput of one (protocol, command size) combination."""

    protocol: str
    command_size: int
    committed: int
    window_seconds: float
    throughput_kops: float
    replica_utilization: dict[int, float]


def throughput_spec(
    protocol: str,
    command_size: int,
    *,
    replica_count: int = 5,
    window: Micros = seconds_to_micros(1.0),
    warmup: Micros = ms_to_micros(200.0),
    outstanding_per_replica: int = 128,
    cpu_model: CpuModel = DEFAULT_CPU_MODEL,
    seed: int = 7,
) -> ExperimentSpec:
    """The declarative spec of one saturated-throughput run."""
    sites = tuple(f"dc{i}" for i in range(replica_count))
    leader_based = protocol_capabilities(protocol).leader_based
    return ExperimentSpec(
        name=f"{protocol}-throughput-{command_size}B",
        protocol=protocol,
        sites=sites,
        leader_site=sites[0] if leader_based else None,
        latency="uniform",
        one_way_ms=LOCAL_ONE_WAY_DELAY / 1_000,
        jitter_fraction=0.0,
        workload=WorkloadSpec(
            scenario="saturating",
            payload_size=command_size,
            outstanding_per_site=outstanding_per_replica,
            app="null",
        ),
        cpu=CpuSpec(
            recv_fixed=cpu_model.recv_fixed,
            recv_per_byte=cpu_model.recv_per_byte,
            send_fixed=cpu_model.send_fixed,
            send_per_byte=cpu_model.send_per_byte,
            client_fixed=cpu_model.client_fixed,
        ),
        duration_s=window / 1_000_000,
        warmup_s=warmup / 1_000_000,
        seed=seed,
    )


def run_throughput_experiment(
    protocol: str,
    command_size: int,
    **kwargs,
) -> ThroughputResult:
    """Measure saturated throughput for one protocol and command size."""
    spec = throughput_spec(protocol, command_size, **kwargs)
    result = Deployment(spec, backend="sim").run()
    utilization = {
        rid: metrics["utilization"]
        for rid, metrics in result.replica_metrics.items()
        if "utilization" in metrics
    }
    return ThroughputResult(
        protocol=protocol,
        command_size=command_size,
        committed=result.total_committed,
        window_seconds=result.duration_s,
        throughput_kops=result.throughput_kops,
        replica_utilization=utilization,
    )


def run_throughput_comparison(
    protocols: Sequence[str] = THROUGHPUT_PROTOCOLS,
    command_sizes: Sequence[int] = COMMAND_SIZES,
    **kwargs,
) -> list[ThroughputResult]:
    """Figure 8: every protocol at every command size."""
    results = []
    for size in command_sizes:
        for protocol in protocols:
            results.append(run_throughput_experiment(protocol, size, **kwargs))
    return results


__all__ = [
    "THROUGHPUT_PROTOCOLS",
    "COMMAND_SIZES",
    "DEFAULT_CPU_MODEL",
    "ThroughputResult",
    "throughput_spec",
    "run_throughput_experiment",
    "run_throughput_comparison",
]
