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
from operator import attrgetter
from random import Random
from typing import Any, Callable, Optional

from ..net.latency import LatencyMatrix
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


class InFlight:
    """One message on the link, from send to delivery.

    It reads as an :class:`~repro.net.message.Envelope` (``src``, ``dst``,
    ``message``, ``size_hint``) — delivery handlers receive it as one — and
    it is its own event in the timer's queue: ``(time, seq, record)``, with
    :meth:`callback` the delivery.  So a message costs one object from send
    to handler.  The network fills in the rest when it sends the record:
    the delivery ``time``, the channel's send sequence number ``seq`` (the
    order a partition releases parked messages in) and the ``network``.
    """

    __slots__ = ("src", "dst", "message", "size_hint", "time", "seq", "network")

    #: The run loop's question to every event; a message is never cancelled.
    cancelled = False

    def __init__(self, src: ReplicaId, dst: ReplicaId, message: Any, size_hint: int = 0) -> None:
        self.src = src
        self.dst = dst
        self.message = message
        self.size_hint = size_hint

    def callback(self) -> None:
        """Deliver: to the destination's handler, unless a fault armed since
        the send drops or parks the message."""
        network = self.network
        if (network._down or network._partitions) and network._handle_blocked(self):
            # The destination crashed or was partitioned while the message
            # was in flight (parked until heal in ``buffer`` mode).
            return
        handler = network._handlers.get(self.dst)
        if handler is None:
            network.dropped_count += 1
            return
        network.delivered_count += 1
        handler(self, self.time)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InFlight({self.src}->{self.dst}, {self.message!r})"


class _Channel:
    """What the network keeps per (src, dst): the delay parameters, fixed for
    the network's lifetime, and the FIFO bookkeeping."""

    __slots__ = ("base", "jitter_span", "jitter_bits", "sent", "last_delivery", "parked")

    def __init__(self, base: Micros, jitter_span: int) -> None:
        #: One-way delay of the latency matrix.
        self.base = base
        #: Jitter is drawn from ``range(jitter_span)``; 0 means no draw at all.
        self.jitter_span = jitter_span
        #: Bits per draw: ``jitter_span.bit_length()``.
        self.jitter_bits = jitter_span.bit_length()
        #: Messages sent so far — the next message's send sequence number.
        self.sent = 0
        #: Last scheduled delivery time, for FIFO enforcement.
        self.last_delivery: Micros = 0
        #: Messages held back by a partition in ``buffer`` mode, released in
        #: send order (``InFlight.seq``) on heal.  A message may be parked at
        #: send time or — if it was already in flight when the partition
        #: started — at delivery time; the send sequence keeps the channel
        #: FIFO across both cases.
        self.parked: list[InFlight] = []

    def sample_delay(self, rng: Random) -> Micros:
        """The one-way delay of one message: base plus a jitter draw.

        The draw is ``randrange(jitter_span)`` — ``randint(0, span - 1)`` —
        without its argument checks: ``randrange(n)`` for ``n > 0`` is
        ``Random._randbelow(n)``, which draws ``n.bit_length()`` bits until
        the value is below ``n``.  Same calls on the stream, same values.
        """
        span = self.jitter_span
        if span:
            bits, draw = self.jitter_bits, rng.getrandbits
            jitter = draw(bits)
            while jitter >= span:
                jitter = draw(bits)
            return self.base + jitter
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
        self._handlers: dict[ReplicaId, Callable[[InFlight, Micros], None]] = {}
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

    def attach(self, replica_id: ReplicaId, handler: Callable[[InFlight, Micros], None]) -> None:
        """Register the delivery handler of a node (called at delivery time
        with the :class:`InFlight` record, which reads as an envelope)."""
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
        parked, channel.parked = sorted(channel.parked, key=attrgetter("seq")), []
        for record in parked:
            self._schedule_delivery(record, channel, self._env.now)

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

    def _handle_blocked(self, record: InFlight) -> bool:
        """Drop or park *record* if its channel is blocked; True if handled.

        Only reached while a fault is armed: :meth:`send` and the delivery
        skip the call when nothing is down and nothing is partitioned.
        """
        src, dst = record.src, record.dst
        if src in self._down or dst in self._down:
            self.dropped_count += 1
            return True
        if frozenset((src, dst)) in self._partitions:
            if self._options.partition_mode == "buffer":
                self._channels[src, dst].parked.append(record)
            else:
                self.dropped_count += 1
            return True
        return False

    def send(self, envelope: Any, send_time: Optional[Micros] = None) -> None:
        """Schedule delivery of *envelope*.

        An :class:`InFlight` record is sent as it is — the caller hands it
        over; any other envelope is copied into one.  ``send_time`` defaults
        to the current time; the node's CPU model passes a later time when
        serialization kept the CPU busy.
        """
        record = envelope if type(envelope) is InFlight else InFlight(
            envelope.src, envelope.dst, envelope.message, envelope.size_hint
        )
        record.network = self
        self.sent_count += 1
        self.bytes_sent += record.size_hint
        channel = self._channels.get((record.src, record.dst)) or self._open_channel(
            record.src, record.dst
        )
        record.seq = seq = channel.sent
        channel.sent = seq + 1
        if (self._down or self._partitions) and self._handle_blocked(record):
            return
        loss = self._options.loss_probability
        if loss > 0.0 and self._env.random.random() < loss:
            self.dropped_count += 1
            return
        now = self._env.now
        self._schedule_delivery(
            record, channel, now if send_time is None or send_time < now else send_time
        )

    def _schedule_delivery(self, record: InFlight, channel: _Channel, departure: Micros) -> None:
        delivery = departure + channel.sample_delay(self._env.random)
        # FIFO per channel: never deliver before a previously sent message.
        if delivery < channel.last_delivery:
            delivery = channel.last_delivery
        channel.last_delivery = record.time = delivery
        self._env.enqueue(delivery, record)


__all__ = ["InFlight", "SimulatedNetwork", "NetworkOptions"]
