"""Transport interfaces and an in-memory implementation.

A transport moves :class:`~repro.net.message.Envelope` objects between
replicas.  The discrete-event simulator has its own delivery machinery
(:mod:`repro.sim.network`); the transports here serve the asyncio runtime and
unit tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Optional

from ..errors import TransportError
from ..types import ReplicaId
from .message import Envelope

DeliveryHandler = Callable[[Envelope], None]


class Transport(ABC):
    """Sends envelopes to peers and delivers incoming ones to a handler."""

    def __init__(self, local_id: ReplicaId) -> None:
        self._local_id = local_id
        self._handler: Optional[DeliveryHandler] = None

    @property
    def local_id(self) -> ReplicaId:
        return self._local_id

    def set_handler(self, handler: DeliveryHandler) -> None:
        """Register the callback invoked for each incoming envelope."""
        self._handler = handler

    def _dispatch(self, envelope: Envelope) -> None:
        if self._handler is None:
            raise TransportError(
                f"replica {self._local_id} received a message before a handler was set"
            )
        self._handler(envelope)

    @abstractmethod
    def send(self, envelope: Envelope) -> None:
        """Queue *envelope* for delivery to ``envelope.dst``."""

    async def start(self) -> None:
        """Open what the transport needs before the replica runs (a socket
        transport listens); nothing for an in-process one."""

    async def stop(self) -> None:
        """Release what :meth:`start` opened; nothing for an in-process one."""

    def close(self) -> None:
        """The replica host is going away (it stopped, as in a crash).

        Drop what the host queued and was not yet sent.  The transport stays
        usable: a restarted host (see ``ReplicaServer.restart``) sends and
        receives through it.
        """


class InMemoryNetwork:
    """A hub connecting :class:`InMemoryTransport` instances in one process.

    Delivery is either immediate (``auto_deliver=True``) or deferred until
    :meth:`deliver_all` / :meth:`deliver_one` is called, which lets a caller
    interleave message deliveries deterministically between replicas (FIFO
    per channel is always preserved, as the paper's model assumes).
    """

    def __init__(self, auto_deliver: bool = True) -> None:
        self._auto_deliver = auto_deliver
        self._transports: dict[ReplicaId, "InMemoryTransport"] = {}
        self._queues: dict[tuple[ReplicaId, ReplicaId], deque[Envelope]] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, transport: "InMemoryTransport") -> None:
        if transport.local_id in self._transports:
            raise TransportError(f"replica {transport.local_id} already attached")
        self._transports[transport.local_id] = transport

    def transport_for(self, replica_id: ReplicaId) -> "InMemoryTransport":
        transport = InMemoryTransport(replica_id, self)
        self.attach(transport)
        return transport

    # -- delivery ------------------------------------------------------------

    def submit(self, envelope: Envelope) -> None:
        if envelope.dst not in self._transports:
            raise TransportError(f"unknown destination replica {envelope.dst}")
        key = (envelope.src, envelope.dst)
        self._queues.setdefault(key, deque()).append(envelope)
        if self._auto_deliver:
            self.deliver_all()

    def deliver_one(self) -> bool:
        """Deliver the oldest queued envelope; return False if none queued."""
        for key in list(self._queues):
            queue = self._queues[key]
            if queue:
                envelope = queue.popleft()
                self._transports[envelope.dst]._dispatch(envelope)
                return True
        return False

    def deliver_all(self, limit: int = 100_000) -> int:
        """Deliver queued envelopes (including ones produced while delivering).

        Returns the number delivered.  *limit* guards against livelock in
        tests exercising protocols that keep generating traffic.
        """
        delivered = 0
        while delivered < limit and self.deliver_one():
            delivered += 1
        return delivered


class InMemoryTransport(Transport):
    """Transport endpoint attached to an :class:`InMemoryNetwork`."""

    def __init__(self, local_id: ReplicaId, network: InMemoryNetwork) -> None:
        super().__init__(local_id)
        self._network = network

    def send(self, envelope: Envelope) -> None:
        if envelope.src != self.local_id:
            raise TransportError(
                f"transport of replica {self.local_id} cannot send as {envelope.src}"
            )
        if envelope.dst == self.local_id:
            # Loopback: deliver immediately, matching the protocols'
            # expectation that self-addressed messages incur no delay.
            self._dispatch(envelope)
            return
        self._network.submit(envelope)


__all__ = ["Transport", "InMemoryNetwork", "InMemoryTransport", "DeliveryHandler"]
