"""Shared helpers for the test suite (importable as ``tests.helpers``)."""

from __future__ import annotations

import itertools
import weakref
from typing import Iterable, Iterator

from repro.analysis.ec2 import ec2_latency_matrix
from repro.clocks.base import Clock
from repro.config import ClusterSpec, ProtocolConfig
from repro.errors import ClockError
from repro.kvstore.kv import KVStateMachine
from repro.net.latency import LatencyMatrix
from repro.net.tcp import TcpTransport
from repro.runtime.server import ReplicaServer
from repro.sim.cluster import SimulatedCluster
from repro.statemachine import AppendLogStateMachine
from repro.storage.log import LogRecord
from repro.storage.memory_log import InMemoryLog
from repro.types import Command, CommandId, Micros, ReplicaId

ALL_PROTOCOLS = ("clock-rsm", "paxos", "paxos-bcast", "mencius", "mencius-bcast")


def make_command(seq: int, payload: bytes = b"x", client: str = "test-client") -> Command:
    """A small helper for building commands in unit tests."""
    return Command(CommandId(client, seq), payload)


class ManualClock(Clock):
    """A clock that moves only when the test moves it."""

    def __init__(self, start: Micros = 0) -> None:
        self._now = start

    def now(self) -> Micros:
        return self._now

    def advance(self, delta: Micros) -> Micros:
        """Advance the clock by *delta* microseconds and return the new time."""
        if delta < 0:
            raise ClockError(f"cannot advance a clock backwards (delta={delta})")
        self._now += delta
        return self._now

    def set(self, value: Micros) -> None:
        """Jump the clock to *value*; must not move backwards."""
        if value < self._now:
            raise ClockError(f"cannot move clock backwards from {self._now} to {value}")
        self._now = value


def log_of(records: Iterable[LogRecord]) -> InMemoryLog:
    """An :class:`InMemoryLog` holding *records*, in order."""
    log = InMemoryLog()
    for record in records:
        log.append(record)
    return log


_SEQNOS: "weakref.WeakKeyDictionary[SimulatedCluster, Iterator[int]]" = weakref.WeakKeyDictionary()


def sim_command(cluster: SimulatedCluster, payload: bytes, client: str = "client") -> Command:
    """A command whose seqno is unique within *cluster* (1, 2, ...), stamped
    with the cluster's current simulation time."""
    seqnos = _SEQNOS.setdefault(cluster, itertools.count(1))
    return Command(CommandId(client, next(seqnos)), payload, created_at=cluster.env.now)


def submit_payload(
    cluster: SimulatedCluster, replica_id: ReplicaId, payload: bytes, client: str = "client"
) -> Command:
    """Submit *payload* to *replica_id* now, as a fresh :func:`sim_command`."""
    return cluster.submit(replica_id, sim_command(cluster, payload, client))


def submit_at(cluster: SimulatedCluster, time: Micros, replica_id: ReplicaId, command) -> None:
    """Schedule *command* (or a pre-built unit) to reach *replica_id* at the
    absolute simulation time *time*.

    Bypasses the batching accumulator: the command reaches the protocol
    directly, which is what tests scripting exact arrival times want.
    """
    cluster.start()
    cluster.env.schedule_at(time, lambda: cluster.nodes[replica_id].submit_client_request(command))


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
