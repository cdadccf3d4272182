"""Asyncio driver for sans-IO replicas.

The driver owns a protocol replica and a transport.  Incoming envelopes and
client requests are handed to the replica on the event loop; the actions it
returns are executed immediately: sends go to the transport, timers become
``loop.call_later`` callbacks, and client replies are delivered to a
registered callback (the replica server resolves pending futures with them).

With :class:`~repro.config.BatchingOptions`, submitted commands are
opportunistically accumulated into a
:class:`~repro.protocols.records.CommandBatch` before reaching the replica:
the queue flushes when it holds ``max_batch`` commands or when the
accumulation window expires (``window_us = 0`` flushes whatever the current
event-loop tick queued — batch if load is there, never wait if it is not).
Submission never blocks on a previous unit committing, so batches pipeline
through the protocol naturally.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import time
from typing import Any, Callable, Optional

from ..config import BatchingOptions
from ..net.batching import BatchAccumulator
from ..net.message import Envelope
from ..protocols.base import (
    Action,
    Broadcast,
    ClientReply,
    Replica,
    Send,
    SetTimer,
    Timer,
)
from ..protocols.records import make_unit
from ..sim.scheduler import LoopTimer
from ..types import Command, CommandId, micros_to_seconds

_LOGGER = logging.getLogger(__name__)

ReplyCallback = Callable[[CommandId, Any], None]


class _Flight:
    """Per-command timing record for the queue-wait vs protocol-time split.

    One slotted object per in-flight command replaces the former pair of
    per-command dict entries (``_submitted_at`` / ``_proposed_at``): half the
    hashing and dict churn on the submit → propose → reply hot path, and the
    proposal timestamp is a plain attribute store on a record already in hand.
    """

    __slots__ = ("submitted", "proposed")

    def __init__(self, submitted: float) -> None:
        self.submitted = submitted
        self.proposed = -1.0


class AsyncReplicaDriver:
    """Runs one protocol replica on an asyncio event loop."""

    def __init__(
        self,
        replica: Replica,
        transport,
        on_reply: Optional[ReplyCallback] = None,
        batching: Optional[BatchingOptions] = None,
    ) -> None:
        self.replica = replica
        self.transport = transport
        self.on_reply = on_reply
        self.batching = batching if batching is not None and batching.enabled else None
        self._accumulator: Optional[BatchAccumulator[Command]] = (
            BatchAccumulator(self.batching, self._propose_unit, LoopTimer())
            if self.batching is not None
            else None
        )
        self._timer_handles: list[asyncio.TimerHandle] = []
        self._started = False
        # Queue-wait vs protocol-time split: one _Flight record per command,
        # stamped at submission (joins the accumulator) and proposal (reaches
        # the replica), settled when its ClientReply comes back.
        self._in_flight: dict[CommandId, _Flight] = {}
        self._split_queue_total = 0.0
        self._split_protocol_total = 0.0
        self._split_samples = 0
        #: Flight records dropped unsettled (see :meth:`submit`).
        self.shed_count = 0
        transport.set_handler(self._on_envelope)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Run the replica's start hook (arming its initial timers)."""
        if self._started:
            return
        self._started = True
        self._perform(self.replica.start())

    def stop(self) -> None:
        """Cancel outstanding timers and stop the replica."""
        self.replica.stop()
        if self._accumulator is not None:
            self._accumulator.clear()
        for handle in self._timer_handles:
            handle.cancel()
        self._timer_handles.clear()
        self._in_flight.clear()
        self.transport.close()

    # -- latency split -------------------------------------------------------

    def latency_split(self) -> Optional[dict[str, float]]:
        """Mean queue-wait and protocol-time per replied command, in seconds.

        *Queue wait* is submission → proposal (time spent in the batching
        accumulator; zero without batching), *protocol time* is proposal →
        client reply (consensus plus execution).  ``None`` until at least one
        command has been replied to.
        """
        if self._split_samples == 0:
            return None
        return {
            "queue_wait_s": self._split_queue_total / self._split_samples,
            "protocol_s": self._split_protocol_total / self._split_samples,
            "samples": float(self._split_samples),
        }

    # -- inputs ---------------------------------------------------------------------

    def submit(self, command: Command) -> None:
        """Submit a client command to the replica (dropped while stopped).

        With batching enabled the command joins the accumulation queue and is
        proposed as part of the next flushed unit; without it, the replica
        sees the command immediately (identical to the unbatched runtime).
        """
        if self.replica.stopped:
            return
        now = time.monotonic()
        # Commands whose reply never arrives (crash, timeout) would pin their
        # records forever; shed the oldest half past a generous bound, and
        # count what was shed: those commands drop out of the latency split.
        in_flight = self._in_flight
        if len(in_flight) > 65536:
            for key in list(itertools.islice(iter(in_flight), 32768)):
                del in_flight[key]
            self.shed_count += 32768
        flight = _Flight(now)
        in_flight[command.command_id] = flight
        if self._accumulator is None:
            flight.proposed = now  # no queue: wait is 0
            self._perform(self.replica.on_client_request(command))
        else:
            self._accumulator.add(command)

    def _propose_unit(self, commands: list[Command]) -> None:
        """Propose flushed commands as one unit (batch or single)."""
        if self.replica.stopped:
            return
        now = time.monotonic()
        in_flight = self._in_flight
        for command in commands:
            flight = in_flight.get(command.command_id)
            if flight is not None:
                flight.proposed = now
        self._perform(self.replica.on_client_request(make_unit(commands)))

    def _on_envelope(self, envelope: Envelope) -> None:
        if self.replica.stopped:
            # A delivery already scheduled when the replica crashed.
            return
        self._perform(self.replica.on_message(envelope.src, envelope.message))

    def _on_timer(self, timer: Timer) -> None:
        if self.replica.stopped:
            return
        self._perform(self.replica.on_timer(timer))

    # -- action execution --------------------------------------------------------------

    def _perform(self, actions: list[Action]) -> None:
        # Self-addressed envelopes are delivered synchronously by the
        # transport, re-entering the replica, which may immediately generate
        # follow-up sends — e.g. handling our own PREPARE broadcasts the
        # PREPAREOK, whose clock reading is larger than the PREPARE's
        # timestamp.  Those nested sends must reach every peer *after* the
        # sends of this batch (Clock-RSM's stability rule assumes a replica's
        # messages carry non-decreasing clock readings in arrival order), so
        # all network sends are enqueued first and self-deliveries deferred
        # to the end of the batch.
        local = self.replica.replica_id
        deferred: list[Envelope] = []
        send = self.transport.send
        on_reply = self.on_reply
        # Checked in descending frequency: a batch of n commands commits with
        # n ClientReply actions but only a handful of sends and timers.
        for action in actions:
            if isinstance(action, ClientReply):
                self._settle_split(action.command_id)
                if on_reply is not None:
                    on_reply(action.command_id, action.output)
            elif isinstance(action, Send):
                envelope = Envelope(local, action.dst, action.message)
                if action.dst == local:
                    deferred.append(envelope)
                else:
                    send(envelope)
            elif isinstance(action, Broadcast):
                include_self = False
                for dst in self.replica.broadcast_targets(action.include_self):
                    if dst == local:
                        include_self = True
                        continue
                    send(Envelope(local, dst, action.message))
                if include_self:
                    deferred.append(Envelope(local, local, action.message))
            elif isinstance(action, SetTimer):
                self._set_timer(action)
            else:  # pragma: no cover - defensive
                _LOGGER.warning("unknown action %r", action)
        for envelope in deferred:
            send(envelope)

    def _settle_split(self, command_id: CommandId) -> None:
        flight = self._in_flight.pop(command_id, None)
        if flight is None or flight.proposed < 0.0:
            return  # a retransmitted / recovered reply we never timed
        now = time.monotonic()
        self._split_queue_total += flight.proposed - flight.submitted
        self._split_protocol_total += now - flight.proposed
        self._split_samples += 1

    def _set_timer(self, action: SetTimer) -> None:
        loop = asyncio.get_running_loop()
        handle = loop.call_later(
            micros_to_seconds(action.delay), self._on_timer, action.timer
        )
        self._timer_handles.append(handle)
        # Garbage-collect expired handles occasionally to bound memory.  Fired
        # handles are never "cancelled", so they must be dropped by deadline;
        # keeping them would make this scan quadratic under sustained load
        # (every PREPARE can arm a clock-wait timer) and livelock the loop.
        # A due-but-unfired handle dropped here at worst fires after stop(),
        # where the stopped-replica guard in _on_timer ignores it.
        if len(self._timer_handles) > 1024:
            now = loop.time()
            self._timer_handles = [
                h for h in self._timer_handles if not h.cancelled() and h.when() > now
            ]


__all__ = ["AsyncReplicaDriver"]
