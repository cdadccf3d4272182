"""Closed-loop and saturating client generators for simulated clusters."""

from __future__ import annotations

import itertools
from typing import Optional

from ..metrics.collector import LatencyCollector
from ..sim.cluster import ReplyEvent, SimulatedCluster
from ..types import Command, CommandId, Micros, ReplicaId, ms_to_micros


class ClosedLoopClients:
    """Closed-loop clients attached to one replica of a simulated cluster.

    Each client keeps exactly one command outstanding: submit, wait for the
    commit reply from the local replica, think for a uniformly random
    duration in ``[think_time_min, think_time_max]``, submit again.  This is
    the client model the paper uses for all latency experiments, and the
    defaults are its setup: 40 clients per replica, 64-byte commands, think
    time uniform in [0, 80] ms.

    ``payload_factory`` customises command payloads; it receives the
    simulation's :class:`random.Random` and must return bytes (e.g.
    :func:`repro.kvstore.commands.random_update` for key-value workloads).
    When unset, clients send opaque ``payload_size``-byte blobs.
    """

    _pool_ids = itertools.count(1)

    def __init__(
        self,
        cluster: SimulatedCluster,
        replica_id: ReplicaId,
        clients: int = 40,
        payload_size: int = 64,
        think_time_min: Micros = 0,
        think_time_max: Micros = ms_to_micros(80.0),
        collector: Optional[LatencyCollector] = None,
        payload_factory=None,
    ) -> None:
        self.cluster = cluster
        self.replica_id = replica_id
        self.clients = clients
        self.payload_size = payload_size
        self.think_time_min = think_time_min
        self.think_time_max = think_time_max
        self.collector = collector
        self.submitted = 0
        self.completed = 0
        self._stopped = False
        self._pool_id = next(self._pool_ids)
        self._payload_factory = payload_factory
        self._command_seq = itertools.count(1)
        #: Maps an outstanding command to the client index that issued it.
        self._outstanding: dict[CommandId, int] = {}
        cluster.on_reply(self._on_reply)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Schedule every client's first request with a random initial offset."""
        self.cluster.start()
        for client_index in range(self.clients):
            offset = self._think_time()
            self.cluster.env.schedule(
                offset, lambda idx=client_index: self._submit_next(idx)
            )

    def stop(self) -> None:
        """Stop issuing new requests (outstanding ones still complete)."""
        self._stopped = True

    # -- internals ------------------------------------------------------------------

    def _client_name(self, client_index: int) -> str:
        site = self.cluster.spec.replica(self.replica_id).site
        return f"{site}/pool{self._pool_id}/client{client_index}"

    def _think_time(self) -> Micros:
        if self.think_time_max == self.think_time_min:
            return self.think_time_min
        return self.cluster.env.random.randint(self.think_time_min, self.think_time_max)

    def _make_payload(self) -> bytes:
        if self._payload_factory is None:
            return bytes(self.payload_size)
        return self._payload_factory(self.cluster.env.random)

    def _submit_next(self, client_index: int) -> None:
        if self._stopped:
            return
        command = Command(
            CommandId(self._client_name(client_index), next(self._command_seq)),
            self._make_payload(),
            created_at=self.cluster.env.now,
        )
        self._outstanding[command.command_id] = client_index
        if self.collector is not None:
            self.collector.record_submit(command.command_id, self.replica_id, self.cluster.env.now)
        self.submitted += 1
        self.cluster.submit(self.replica_id, command)

    def _on_reply(self, event: ReplyEvent) -> None:
        client_index = self._outstanding.pop(event.command_id, None)
        if client_index is None:
            return
        self.completed += 1
        if self.collector is not None:
            self.collector.record_commit(event.command_id, event.time)
        if not self._stopped:
            self.cluster.env.schedule(
                self._think_time(), lambda idx=client_index: self._submit_next(idx)
            )


class SaturatingClients:
    """Window-based clients that keep a replica saturated (throughput runs).

    Keeps ``window`` commands outstanding at the replica at all times; as
    soon as one commits, another is submitted.  With a CPU model installed,
    this drives the replicas to their processing limit, which is what the
    paper's local-cluster throughput experiment measures.
    """

    _pool_ids = itertools.count(1)

    def __init__(
        self,
        cluster: SimulatedCluster,
        replica_id: ReplicaId,
        payload_size: int,
        window: int = 64,
        collector: Optional[LatencyCollector] = None,
        payload_factory=None,
    ) -> None:
        self.cluster = cluster
        self.replica_id = replica_id
        self.payload_size = payload_size
        self.window = window
        self.collector = collector
        self._payload_factory = payload_factory
        self.submitted = 0
        self.completed = 0
        self._stopped = False
        self._pool_id = next(self._pool_ids)
        self._command_seq = itertools.count(1)
        self._outstanding: set[CommandId] = set()
        cluster.on_reply(self._on_reply)

    def start(self) -> None:
        self.cluster.start()
        for _ in range(self.window):
            self.cluster.env.schedule(0, self._submit_one)

    def stop(self) -> None:
        self._stopped = True

    def _submit_one(self) -> None:
        if self._stopped:
            return
        site = self.cluster.spec.replica(self.replica_id).site
        if self._payload_factory is None:
            payload = bytes(self.payload_size)
        else:
            payload = self._payload_factory(self.cluster.env.random)
        command = Command(
            CommandId(f"{site}/sat{self._pool_id}", next(self._command_seq)),
            payload,
            created_at=self.cluster.env.now,
        )
        self._outstanding.add(command.command_id)
        if self.collector is not None:
            self.collector.record_submit(command.command_id, self.replica_id, self.cluster.env.now)
        self.submitted += 1
        self.cluster.submit(self.replica_id, command)

    def _on_reply(self, event: ReplyEvent) -> None:
        if event.command_id not in self._outstanding:
            return
        self._outstanding.discard(event.command_id)
        self.completed += 1
        if self.collector is not None:
            self.collector.record_commit(event.command_id, event.time)
        if not self._stopped:
            self._submit_one()


__all__ = ["ClosedLoopClients", "SaturatingClients"]
