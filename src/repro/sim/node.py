"""A simulated replica host.

A :class:`SimulatedNode` owns one sans-IO protocol replica and connects it to
the simulated network and event loop: it performs the replica's actions
(sends, broadcasts, timers, client replies) and feeds deliveries back in.

Two execution modes:

* **Zero-cost** (default): protocol processing and serialization take no
  simulated time.  Used by all latency experiments, where wide-area delays
  dominate (the paper makes the same assumption analytically).
* **CPU model**: message receive/serialize work occupies a per-node serial
  CPU with per-message fixed costs and per-byte costs, and messages queued
  while the CPU is busy are processed in batches (per peer and message type),
  amortizing the fixed costs — modelling the opportunistic batching the
  paper's implementation performs.  Used by the throughput experiments
  (Figure 8), where CPU is the bottleneck.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

from ..protocols.base import (
    Action,
    Broadcast,
    ClientReply,
    Replica,
    Send,
    SetTimer,
    Timer,
)
from ..types import Command, Micros, ReplicaId
from .environment import SimulationEnvironment
from .network import InFlight, SimulatedNetwork

#: Callback signature for committed client commands:
#: (replica_id, command_id, output, commit_time_micros).
ReplyHandler = Callable[[ReplicaId, Any, Any, Micros], None]


@dataclass(frozen=True, slots=True)
class CpuModel:
    """Per-node CPU cost model for the throughput experiments.

    All costs are in microseconds.  ``recv_fixed`` / ``send_fixed`` are paid
    once per *batch group* (messages of the same type exchanged with the same
    peer that are handled together), so saturation increases batch sizes and
    amortizes the fixed costs — the paper's opportunistic batching.
    ``*_per_byte`` costs are paid for every message individually.
    """

    recv_fixed: float = 6.0
    recv_per_byte: float = 0.006
    send_fixed: float = 6.0
    send_per_byte: float = 0.006
    client_fixed: float = 2.0

    def receive_cost(self, groups: int, total_bytes: int) -> Micros:
        return int(round(groups * self.recv_fixed + total_bytes * self.recv_per_byte))

    def send_cost(self, groups: int, total_bytes: int) -> Micros:
        return int(round(groups * self.send_fixed + total_bytes * self.send_per_byte))


#: Estimated per-physical-message overhead in bytes: Ethernet/IP/TCP headers
#: plus framing and protocol-buffer envelope fields.  It doubles as the
#: per-message CPU work that batching cannot remove (parsing, queueing).
MESSAGE_HEADER_BYTES = 72


def _unit_size(unit: Any) -> int:
    """Payload + per-command framing bytes of a command or batch."""
    commands = getattr(unit, "commands", None)
    if commands is not None:  # a CommandBatch: one envelope, many commands
        return sum(command.size + 24 for command in commands)
    if isinstance(unit, Command):
        return unit.size + 24
    return 0


def default_message_size(message: Any) -> int:
    """Estimate the serialized size of a protocol message in bytes.

    Counts a fixed header plus the embedded command payload (and key/value
    bytes dominate real message sizes, as in the paper's Protocol Buffers
    encoding).  A :class:`~repro.protocols.records.CommandBatch` counts every
    constituent's payload but only one message header — the whole batch is
    one wire message (and one simulated delivery), which is where batching's
    fixed-cost amortization comes from.  Exact wire sizes are irrelevant;
    relative sizes drive the throughput model.
    """
    size = MESSAGE_HEADER_BYTES
    size += _unit_size(getattr(message, "command", None))
    records = getattr(message, "records", None)
    if records:
        for record in records:
            size += _unit_size(getattr(record, "command", None))
    return size


class SimulatedNode:
    """Hosts a protocol replica inside the simulation."""

    def __init__(
        self,
        env: SimulationEnvironment,
        network: SimulatedNetwork,
        replica: Replica,
        reply_handler: Optional[ReplyHandler] = None,
        cpu_model: Optional[CpuModel] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.replica = replica
        self.replica_id = replica.replica_id
        self.reply_handler = reply_handler
        self.cpu_model = cpu_model
        self.crashed = False
        # CPU-model state.
        self._inbox: deque[tuple[str, Any, Micros]] = deque()
        self._cpu_free_at: Micros = 0
        self._process_scheduled = False
        # Statistics.
        self.messages_sent = 0
        self.messages_received = 0
        self.busy_micros: Micros = 0
        network.attach(self.replica_id, self._on_delivery)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Run the replica's start hook (arms its initial timers)."""
        self._perform(self.replica.start())

    def crash(self) -> None:
        """Crash the node: it stops processing and loses its soft state.

        Its timers and its CPU backlog die with it: the queued inputs go now,
        the CPU is free for a successor, and the replica's armed timers and
        pending batch are dropped when they fire (they name the replica that
        armed them), as on the asyncio backend, whose driver cancels them.
        """
        self.crashed = True
        self.replica.stop()
        self.network.set_down(self.replica_id, True)
        self._inbox.clear()
        self._cpu_free_at = 0
        self._process_scheduled = False

    def set_replica(self, replica: Replica) -> None:
        """Install a fresh replica object (recovery re-creates the protocol).

        Timers armed by the previous replica do not reach this one.
        """
        self.replica = replica
        self.crashed = False
        self.network.set_down(self.replica_id, False)

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def submit_client_request(self, command: Any) -> None:
        """Deliver a client unit (command or batch) to the replica now."""
        if self.crashed:
            return
        if self.cpu_model is None:
            self._perform(self.replica.on_client_request(command))
        else:
            self._enqueue("client", command, self.env.now)

    def _on_delivery(self, record: InFlight, delivery_time: Micros) -> None:
        if self.crashed:
            return
        self.messages_received += 1
        if self.cpu_model is None:
            actions = self.replica.on_message(record.src, record.message)
            if actions:
                self._perform(actions)
        else:
            self._enqueue("msg", record, delivery_time)

    def _fire_timer(self, owner: Replica, timer: Timer) -> None:
        if self.crashed or owner is not self.replica:
            return  # the node is down, or the replica that armed it is gone
        if self.cpu_model is None:
            self._perform(self.replica.on_timer(timer))
        else:
            self._enqueue("timer", timer, self.env.now)

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------

    def _perform(
        self,
        actions: list[Action],
        send_time: Optional[Micros] = None,
        sizes: Optional[Sequence[int]] = None,
    ) -> None:
        """Carry out *actions* in order.

        A message is sized once per action — a broadcast's envelopes all
        carry the same size.  ``sizes`` (aligned with *actions*) hands in the
        sizes :meth:`_process_batch` already computed for its CPU cost.
        """
        me = self.replica_id
        for index, action in enumerate(actions):
            kind = type(action)
            if kind is Send:
                message = action.message
                self.messages_sent += 1
                if action.dst == me:
                    self._deliver_to_self(message, send_time)
                else:
                    size = sizes[index] if sizes is not None else default_message_size(message)
                    self.network.send(InFlight(me, action.dst, message, size), send_time)
            elif kind is Broadcast:
                message = action.message
                size = sizes[index] if sizes is not None else default_message_size(message)
                send = self.network.send
                for dst in self.replica.broadcast_targets(include_self=False):
                    self.messages_sent += 1
                    send(InFlight(me, dst, message, size), send_time)
                if action.include_self:
                    self._deliver_to_self(message, send_time, size)
            elif kind is ClientReply:
                if self.reply_handler is not None:
                    self.reply_handler(me, action.command_id, action.output, self.env.now)
            elif kind is SetTimer:
                self.env.schedule(
                    action.delay, partial(self._fire_timer, self.replica, action.timer)
                )

    def _deliver_to_self(
        self, message: Any, send_time: Optional[Micros], size: Optional[int] = None
    ) -> None:
        """Loopback delivery: immediate in zero-cost mode, queued with CPU."""
        if self.cpu_model is None:
            actions = self.replica.on_message(self.replica_id, message)
            if actions:
                self._perform(actions)
        else:
            arrival = send_time if send_time is not None else self.env.now
            if size is None:
                size = default_message_size(message)
            record = InFlight(self.replica_id, self.replica_id, message, size)
            self._enqueue("msg", record, arrival)

    # ------------------------------------------------------------------
    # CPU-model path
    # ------------------------------------------------------------------

    def _enqueue(self, kind: str, payload: Any, available_at: Micros) -> None:
        self._inbox.append((kind, payload, available_at))
        self._schedule_processing(max(available_at, self._cpu_free_at, self.env.now))

    def _schedule_processing(self, at: Micros) -> None:
        if self._process_scheduled:
            return
        self._process_scheduled = True
        self.env.schedule_at(max(at, self.env.now), partial(self._process_batch, self.replica))

    def _process_batch(self, owner: Replica) -> None:
        if owner is not self.replica:
            return  # scheduled for a replica that crashed since: its backlog died
        self._process_scheduled = False
        if self.crashed or not self._inbox:
            return
        assert self.cpu_model is not None
        start = max(self.env.now, self._cpu_free_at)
        batch = list(self._inbox)
        self._inbox.clear()

        # Receive costs: one fixed cost per (peer, message type) group.
        # Loopback (self-addressed) messages are local function calls in a
        # real implementation and incur no network-handling CPU cost.
        recv_groups: set[tuple[Any, type]] = set()
        recv_bytes = 0
        client_count = 0
        for kind, payload, _ in batch:
            if kind == "msg":
                if payload.src == self.replica_id:
                    continue
                recv_groups.add((payload.src, type(payload.message)))
                recv_bytes += payload.size_hint
            elif kind == "client":
                client_count += 1
        cost = self.cpu_model.receive_cost(len(recv_groups), recv_bytes)
        cost += int(round(client_count * self.cpu_model.client_fixed))

        # Run the protocol for every batched item, collecting actions.
        actions: list[Action] = []
        for kind, payload, _ in batch:
            if kind == "msg":
                actions.extend(self.replica.on_message(payload.src, payload.message))
            elif kind == "client":
                actions.extend(self.replica.on_client_request(payload))
            else:
                actions.extend(self.replica.on_timer(payload))

        # Send costs: group outgoing messages per (destination, type); sends
        # to self are loopback calls and cost nothing.  Each message is sized
        # once here and ``_perform`` reuses the size for its envelopes.
        me = self.replica_id
        send_groups: set[tuple[ReplicaId, type]] = set()
        send_bytes = 0
        sizes = [0] * len(actions)
        for index, action in enumerate(actions):
            kind = type(action)
            if kind is Send:
                if action.dst != me:
                    sizes[index] = size = default_message_size(action.message)
                    send_groups.add((action.dst, type(action.message)))
                    send_bytes += size
            elif kind is Broadcast:
                sizes[index] = size = default_message_size(action.message)
                for dst in self.replica.broadcast_targets(action.include_self):
                    if dst != me:
                        send_groups.add((dst, type(action.message)))
                        send_bytes += size
        cost += self.cpu_model.send_cost(len(send_groups), send_bytes)

        self._cpu_free_at = start + cost
        self.busy_micros += cost
        # Messages leave the node once the CPU finishes the batch.
        self._perform(actions, send_time=self._cpu_free_at, sizes=sizes)
        if self._inbox:
            self._schedule_processing(self._cpu_free_at)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def utilization(self, elapsed: Micros) -> float:
        """Fraction of *elapsed* simulated time the CPU spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_micros / elapsed)


__all__ = ["SimulatedNode", "CpuModel", "ReplyHandler", "default_message_size"]
