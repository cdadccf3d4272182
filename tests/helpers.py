"""Shared helpers for the test suite (importable as ``tests.helpers``)."""

from __future__ import annotations

from repro.analysis.ec2 import ec2_latency_matrix
from repro.config import ClusterSpec, ProtocolConfig
from repro.kvstore.kv import KVStateMachine
from repro.net.latency import LatencyMatrix
from repro.net.tcp import TcpTransport
from repro.runtime.server import ReplicaServer
from repro.sim.cluster import SimulatedCluster
from repro.statemachine import AppendLogStateMachine
from repro.types import Command, CommandId

ALL_PROTOCOLS = ("clock-rsm", "paxos", "paxos-bcast", "mencius", "mencius-bcast")


def make_command(seq: int, payload: bytes = b"x", client: str = "test-client") -> Command:
    """A small helper for building commands in unit tests."""
    return Command(CommandId(client, seq), payload)


def make_cluster(
    protocol: str,
    sites=("CA", "VA", "IR"),
    *,
    leader: int = 0,
    seed: int = 1,
    uniform_one_way=None,
    use_kv: bool = False,
    **kwargs,
) -> SimulatedCluster:
    """Build a small simulated cluster for integration tests."""
    spec = ClusterSpec.from_sites(list(sites))
    if uniform_one_way is not None:
        matrix = LatencyMatrix.uniform(spec.sites, one_way=uniform_one_way)
    else:
        matrix = ec2_latency_matrix(spec.sites)
    factory = (lambda _rid: KVStateMachine()) if use_kv else (lambda _rid: AppendLogStateMachine())
    return SimulatedCluster(
        spec,
        matrix,
        protocol,
        ProtocolConfig(leader=leader),
        seed=seed,
        state_machine_factory=factory,
        **kwargs,
    )


LOOPBACK_ANY_PORT = "127.0.0.1:0"


def tcp_servers(protocol: str, spec: ClusterSpec, batching=None) -> list:
    """One key-value ``ReplicaServer`` per replica of *spec*, each on its own
    ``TcpTransport`` at :data:`LOOPBACK_ANY_PORT` (start them with
    :func:`start_on_bound_ports`)."""
    return [
        ReplicaServer(
            protocol, rid, spec, KVStateMachine(),
            transport=TcpTransport(rid, LOOPBACK_ANY_PORT, {}, batching=batching),
            batching=batching,
        )  # fmt: skip
        for rid in spec.replica_ids
    ]


async def start_on_bound_ports(servers) -> None:
    """Start ``ReplicaServer``s that listen on :data:`LOOPBACK_ANY_PORT`.

    Fixed ports inside the kernel's ephemeral range collide with an earlier
    test's TIME_WAIT sockets, so: listen everywhere first (a started replica
    sends within Δ and drops sends to unknown peers), exchange the addresses
    the kernel handed out, then start the replicas.
    """
    for server in servers:
        await server.transport.start()
    addresses = {server.replica_id: server.transport.bound_address for server in servers}
    for server in servers:
        server.transport.set_peers(addresses)
    for server in servers:
        await server.start()
