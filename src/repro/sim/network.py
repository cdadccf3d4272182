"""The link model: a simulated wide-area network.

Delivers envelopes between replicas with per-pair one-way delays taken from a
:class:`~repro.net.latency.LatencyMatrix` (e.g. the paper's Table III EC2
measurements), optional jitter, message loss, and partitions.  Delivery per
(source, destination) channel is FIFO even under jitter, matching the
paper's system model and the behaviour of a TCP connection.

Time comes from a :class:`~repro.sim.scheduler.Timer`: the simulation
environment for :class:`~repro.sim.cluster.SimulatedCluster`, a
:class:`~repro.sim.scheduler.LoopTimer` for the asyncio backend's
:class:`~repro.runtime.local.LocalAsyncCluster` — one channel and fault
model under both clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Callable, Optional

from ..net.latency import LatencyMatrix
from ..net.message import Envelope
from ..types import Micros, ReplicaId
from .scheduler import Timer


@dataclass(frozen=True, slots=True)
class NetworkOptions:
    """Tunables of the simulated network.

    Attributes:
        jitter_fraction: Uniform jitter as a fraction of the base one-way
            delay (0.05 adds up to ±5%).  The paper reports average RTTs;
            a small jitter makes percentile plots meaningful.
        jitter_floor: Absolute jitter bound (µs) added even on zero-latency
            (local) links.
        loss_probability: Probability of silently dropping a message
            (independently per message); 0 for all paper experiments.
        partition_mode: What a partition does to traffic.  ``"drop"`` loses
            messages silently (a hard fault, the historical behaviour);
            ``"buffer"`` parks them and re-delivers after the partition
            heals, matching the paper's quasi-reliable (TCP) channels where
            an outage delays messages but correct endpoints eventually
            receive them.  Messages to or from crashed replicas are always
            dropped.
    """

    jitter_fraction: float = 0.0
    jitter_floor: Micros = 0
    loss_probability: float = 0.0
    partition_mode: str = "drop"

    def __post_init__(self) -> None:
        if self.partition_mode not in ("drop", "buffer"):
            raise ValueError(
                f"unknown partition_mode {self.partition_mode!r}; 'drop' or 'buffer'"
            )


class _Channel:
    """What the network keeps per (src, dst): the delay parameters, fixed for
    the network's lifetime, and the FIFO bookkeeping."""

    __slots__ = ("base", "jitter_span", "sent", "last_delivery", "parked")

    def __init__(self, base: Micros, jitter_span: int) -> None:
        #: One-way delay of the latency matrix.
        self.base = base
        #: Jitter is drawn from ``range(jitter_span)``; 0 means no draw at all.
        self.jitter_span = jitter_span
        #: Messages sent so far — the next message's send sequence number.
        self.sent = 0
        #: Last scheduled delivery time, for FIFO enforcement.
        self.last_delivery: Micros = 0
        #: Messages held back by a partition in ``buffer`` mode, as (send
        #: sequence, envelope), released in send order on heal.  A message
        #: may be parked at send time or — if it was already in flight when
        #: the partition started — at delivery time; the send sequence keeps
        #: the channel FIFO across both cases.
        self.parked: list[tuple[int, Envelope]] = []

    def sample_delay(self, rng: Random) -> Micros:
        """The one-way delay of one message: base plus a jitter draw."""
        if self.jitter_span:
            # The draw ``randint(0, jitter_span - 1)`` makes, one call down.
            return self.base + rng.randrange(self.jitter_span)
        return self.base


class SimulatedNetwork:
    """Schedules envelope deliveries on a timer (virtual or event-loop time)."""

    def __init__(
        self,
        env: Timer,
        latency: LatencyMatrix,
        options: NetworkOptions = NetworkOptions(),
    ) -> None:
        self._env = env
        self._latency = latency
        self._options = options
        self._handlers: dict[ReplicaId, Callable[[Envelope, Micros], None]] = {}
        self._partitions: set[frozenset[ReplicaId]] = set()
        self._down: set[ReplicaId] = set()
        #: Per-(src, dst) state, filled on a channel's first use.
        self._channels: dict[tuple[ReplicaId, ReplicaId], _Channel] = {}
        # Statistics.
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.bytes_sent = 0

    # -- wiring ------------------------------------------------------------------

    def attach(self, replica_id: ReplicaId, handler: Callable[[Envelope, Micros], None]) -> None:
        """Register the delivery handler of a node (called at delivery time)."""
        self._handlers[replica_id] = handler

    @property
    def latency(self) -> LatencyMatrix:
        return self._latency

    # -- fault injection -----------------------------------------------------------

    def partition(self, a: ReplicaId, b: ReplicaId) -> None:
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: ReplicaId, b: ReplicaId) -> None:
        self._partitions.discard(frozenset((a, b)))
        self._release_parked(a, b)
        self._release_parked(b, a)

    def isolate(self, replica_id: ReplicaId) -> None:
        """Partition *replica_id* from every other replica."""
        for other in self._handlers:
            if other != replica_id:
                self.partition(replica_id, other)

    def heal_all(self) -> None:
        pairs = [tuple(pair) for pair in self._partitions]
        self._partitions.clear()
        for a, b in pairs:
            self._release_parked(a, b)
            self._release_parked(b, a)

    def _open_channel(self, src: ReplicaId, dst: ReplicaId) -> _Channel:
        """Fill in the (src, dst) entry of the channel table on first use."""
        base = self._latency.delay(src, dst)
        bound = int(base * self._options.jitter_fraction) + self._options.jitter_floor
        channel = self._channels[src, dst] = _Channel(base, bound + 1 if bound > 0 else 0)
        return channel

    def _release_parked(self, src: ReplicaId, dst: ReplicaId) -> None:
        """Re-send messages a healed partition had held back, in send order."""
        channel = self._channels.get((src, dst))
        if channel is None or not channel.parked:
            return
        parked, channel.parked = sorted(channel.parked), []
        for seq, envelope in parked:
            self._schedule_delivery(envelope, channel, self._env.now, seq)

    def set_down(self, replica_id: ReplicaId, down: bool) -> None:
        """Mark a node as crashed: messages to/from it are dropped."""
        if down:
            self._down.add(replica_id)
        else:
            self._down.discard(replica_id)

    def _blocked(self, src: ReplicaId, dst: ReplicaId) -> bool:
        if src in self._down or dst in self._down:
            return True
        return frozenset((src, dst)) in self._partitions

    # -- sending -------------------------------------------------------------------

    def one_way_delay(self, src: ReplicaId, dst: ReplicaId) -> Micros:
        """Sample the one-way delay for one message (base + jitter)."""
        channel = self._channels.get((src, dst)) or self._open_channel(src, dst)
        return channel.sample_delay(self._env.random)

    def _handle_blocked(self, envelope: Envelope, channel: _Channel, seq: int) -> bool:
        """Drop or park *envelope* if its channel is blocked; True if handled.

        Only reached while a fault is armed: :meth:`send` and :meth:`_deliver`
        skip the call when nothing is down and nothing is partitioned.
        """
        src, dst = envelope.src, envelope.dst
        if src in self._down or dst in self._down:
            self.dropped_count += 1
            return True
        if frozenset((src, dst)) in self._partitions:
            if self._options.partition_mode == "buffer":
                channel.parked.append((seq, envelope))
            else:
                self.dropped_count += 1
            return True
        return False

    def send(self, envelope: Envelope, send_time: Optional[Micros] = None) -> None:
        """Schedule delivery of *envelope*.

        ``send_time`` defaults to the current simulation time; the node's CPU
        model passes a later time when serialization kept the CPU busy.
        """
        self.sent_count += 1
        self.bytes_sent += envelope.size_hint
        src, dst = envelope.src, envelope.dst
        channel = self._channels.get((src, dst)) or self._open_channel(src, dst)
        seq = channel.sent
        channel.sent = seq + 1
        if (self._down or self._partitions) and self._handle_blocked(envelope, channel, seq):
            return
        if self._options.loss_probability > 0.0:
            if self._env.random.random() < self._options.loss_probability:
                self.dropped_count += 1
                return
        now = self._env.now
        departure = now if send_time is None or send_time < now else send_time
        self._schedule_delivery(envelope, channel, departure, seq)

    def _schedule_delivery(
        self, envelope: Envelope, channel: _Channel, departure: Micros, seq: int
    ) -> None:
        delivery = departure + channel.sample_delay(self._env.random)
        # FIFO per channel: never deliver before a previously sent message.
        if delivery < channel.last_delivery:
            delivery = channel.last_delivery
        channel.last_delivery = delivery
        self._env.schedule_at(delivery, partial(self._deliver, envelope, channel, delivery, seq))

    def _deliver(
        self, envelope: Envelope, channel: _Channel, delivery_time: Micros, seq: int
    ) -> None:
        if (self._down or self._partitions) and self._handle_blocked(envelope, channel, seq):
            # The destination crashed or was partitioned while the message
            # was in flight (parked until heal in ``buffer`` mode).
            return
        handler = self._handlers.get(envelope.dst)
        if handler is None:
            self.dropped_count += 1
            return
        self.delivered_count += 1
        handler(envelope, delivery_time)


__all__ = ["SimulatedNetwork", "NetworkOptions"]
