"""Run a whole replicated deployment inside one asyncio process.

:class:`LocalAsyncCluster` hosts every replica in one event loop and
connects them through the simulator's link model
(:class:`~repro.sim.network.SimulatedNetwork`) running on the loop's clock
(:class:`~repro.sim.scheduler.LoopTimer`): per-channel FIFO delivery after
the injected one-way delay (e.g. half the Table III RTTs, so examples
experience realistic geo-replication latency while running locally),
partitions that park traffic until they heal, and crashed endpoints that
drop it.
"""

from __future__ import annotations

from typing import Any, Optional

from ..config import BatchingOptions, ClusterSpec, ProtocolConfig
from ..errors import ConfigurationError
from ..net.latency import LatencyMatrix
from ..net.message import Envelope
from ..net.transport import Transport
from ..sim.network import SimulatedNetwork
from ..sim.scheduler import LoopTimer
from ..kvstore.kv import KVStateMachine
from ..types import Command, CommandId, Micros, ReplicaId, next_command_uid
from .server import ReplicaServer


class _LinkTransport(Transport):
    """In-process transport: peers are reached through the link model,
    self-addressed envelopes are dispatched at once."""

    def __init__(self, local_id: ReplicaId, network: SimulatedNetwork) -> None:
        super().__init__(local_id)
        self._network = network
        network.attach(local_id, self._arrive)

    def send(self, envelope: Envelope) -> None:
        if envelope.dst == self.local_id:
            self._dispatch(envelope)
        else:
            self._network.send(envelope)

    def _arrive(self, envelope: Envelope, _time: Micros) -> None:
        self._dispatch(envelope)


class LocalAsyncCluster:
    """All replicas of a deployment running in one asyncio event loop.

    Channels are quasi-reliable, as in the paper's model: a partition parks
    traffic (sent during the outage or already in flight when it started)
    and heals re-deliver it in send order; only a crashed endpoint loses it.
    """

    def __init__(
        self,
        protocol: str,
        spec: ClusterSpec,
        *,
        latency: Optional[LatencyMatrix] = None,
        protocol_config: Optional[ProtocolConfig] = None,
        state_machine_factory=lambda _rid: KVStateMachine(),
        clock_factory=None,
        batching: Optional[BatchingOptions] = None,
    ) -> None:
        self.protocol = protocol
        self.spec = spec
        self.batching = batching
        self.servers: dict[ReplicaId, ReplicaServer] = {}
        self._state_machine_factory = state_machine_factory
        self.network = SimulatedNetwork(
            LoopTimer(),
            latency if latency is not None else LatencyMatrix.uniform(spec.sites, 0),
        )
        for replica_spec in spec.replicas:
            rid = replica_spec.replica_id
            self.servers[rid] = ReplicaServer(
                protocol,
                rid,
                spec,
                state_machine_factory(rid),
                transport=_LinkTransport(rid, self.network),
                protocol_config=protocol_config,
                clock=clock_factory(rid) if clock_factory is not None else None,
                batching=batching,
            )

    # -- lifecycle --------------------------------------------------------------------

    async def start(self) -> None:
        for server in self.servers.values():
            await server.start()

    async def stop(self) -> None:
        for server in self.servers.values():
            await server.stop()

    async def __aenter__(self) -> "LocalAsyncCluster":
        await self.start()
        return self

    async def __aexit__(self, *_exc: Any) -> None:
        await self.stop()

    # -- fault injection ------------------------------------------------------------------

    def crash(self, replica_id: ReplicaId) -> None:
        """Crash a replica: it stops processing; its stable log survives."""
        self.servers[replica_id].crash()
        self.network.set_down(replica_id, True)

    def recover(self, replica_id: ReplicaId, rejoin: bool = False) -> None:
        """Recover a crashed replica from its log and reconnect it.

        With ``rejoin`` the recovered replica immediately triggers a
        reconfiguration back to the full deployment (protocols with the
        reconfiguration capability only).
        """
        self.network.set_down(replica_id, False)
        server = self.servers[replica_id]
        server.restart(self._state_machine_factory(replica_id))
        replica = server.replica
        if rejoin and hasattr(replica, "reconfig"):
            server.driver._perform(replica.reconfig.trigger(tuple(self.spec.replica_ids)))

    def partition(self, a: ReplicaId, b: ReplicaId) -> None:
        self.network.partition(a, b)

    def heal(self, a: ReplicaId, b: ReplicaId) -> None:
        self.network.heal(a, b)

    def clock_jump(self, replica_id: ReplicaId, delta: Micros) -> None:
        """Step one replica's clock by *delta* µs (needs an adjustable clock)."""
        clock = self.servers[replica_id].replica.clock
        adjust = getattr(clock, "adjust", None)
        if adjust is None:
            raise ConfigurationError(
                f"clock of replica {replica_id} ({type(clock).__name__}) "
                "cannot be stepped; deploy it with an adjustable clock"
            )
        adjust(delta)

    # -- client helpers ------------------------------------------------------------------

    def server_at(self, site: str) -> ReplicaServer:
        return self.servers[self.spec.by_site(site).replica_id]

    async def submit(self, replica_id: ReplicaId, payload: bytes) -> Any:
        """Submit a raw command payload to a replica and await its result."""
        command = Command(CommandId("local", next_command_uid()), payload)
        return await self.servers[replica_id].submit(command)


__all__ = ["LocalAsyncCluster"]
