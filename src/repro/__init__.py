"""Clock-RSM reproduction library.

A production-quality Python reproduction of *"Clock-RSM: Low-Latency
Inter-Datacenter State Machine Replication Using Loosely Synchronized
Physical Clocks"* (DSN 2014): the Clock-RSM protocol, the Multi-Paxos,
Paxos-bcast, Mencius and Mencius-bcast baselines, a deterministic wide-area
discrete-event simulator, an asyncio runtime, a replicated key-value store,
the paper's analytical latency model, and the paper's evaluation as spec
files (``examples/specs/paper/``) whose figures are compared with committed
golden outputs.

Quickstart::

    from repro import ClusterSpec, ProtocolConfig, SimulatedCluster
    from repro.analysis import ec2_latency_matrix
    from repro.kvstore import KVStateMachine, SimKVClient

    spec = ClusterSpec.from_sites(["CA", "VA", "IR"])
    cluster = SimulatedCluster(
        spec, ec2_latency_matrix(spec.sites), "clock-rsm",
        state_machine_factory=lambda _rid: KVStateMachine(),
    )
    client = SimKVClient(cluster, replica_id=0)
    client.put("greeting", b"hello geo-replication")
    print(client.get("greeting"))
"""

from .config import ClusterSpec, ProtocolConfig, ReplicaSpec
from .core.protocol import ClockRsmReplica
from .errors import ReproError
from .experiment import Deployment, ExperimentResult, ExperimentSpec
from .net.latency import LatencyMatrix
from .protocols import (
    MenciusBcastReplica,
    MenciusReplica,
    MultiPaxosReplica,
    PaxosBcastReplica,
    create_replica,
)
from .sim.cluster import SimulatedCluster
from .statemachine import StateMachine
from .types import Command, CommandId, Timestamp

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ClusterSpec",
    "ReplicaSpec",
    "ProtocolConfig",
    "LatencyMatrix",
    "Command",
    "CommandId",
    "Timestamp",
    "StateMachine",
    "ClockRsmReplica",
    "MultiPaxosReplica",
    "PaxosBcastReplica",
    "MenciusReplica",
    "MenciusBcastReplica",
    "create_replica",
    "SimulatedCluster",
    "ExperimentSpec",
    "ExperimentResult",
    "Deployment",
    "ReproError",
]
