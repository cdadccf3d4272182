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

import importlib
from typing import Any, Callable


def _lazy(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a lazy package namespace.

    *exports* maps a submodule (relative to the package, like ``".config"``)
    to the public names it defines.  A name is imported from its submodule on
    first access and then bound in *namespace*, so the hook runs once per
    name; any other name is tried as a submodule (``repro.sim`` after
    ``import repro``).  Importing the package therefore imports none of its
    submodules, and a process loads only what it touches.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".config": ("ClusterSpec", "ProtocolConfig", "ReplicaSpec"),
        ".core.protocol": ("ClockRsmReplica",),
        ".errors": ("ReproError",),
        ".experiment": ("Deployment", "ExperimentResult", "ExperimentSpec"),
        ".net.latency": ("LatencyMatrix",),
        ".protocols": (
            "MenciusBcastReplica", "MenciusReplica", "MultiPaxosReplica",
            "PaxosBcastReplica", "create_replica",
        ),
        ".sim.cluster": ("SimulatedCluster",),
        ".statemachine": ("StateMachine",),
        ".types": ("Command", "CommandId", "Timestamp"),
    },
)

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
