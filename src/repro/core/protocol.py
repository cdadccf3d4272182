"""The Clock-RSM replication protocol (Algorithm 1 + Algorithm 2).

A :class:`ClockRsmReplica` is a sans-IO replica: the driver feeds it client
requests, messages and timer expirations, and performs the actions each call
returns.  The implementation follows the paper's pseudocode closely:

* **Client request** (Alg. 1 lines 1-3): assign the command the replica's
  latest clock time (strictly monotonic per replica) and broadcast
  ⟨PREPARE cmd, ts⟩ to every active replica, including itself.
* **PREPARE** (lines 4-10): record the command as pending, update
  ``LatestTV``, append the entry to the stable log, wait (if necessary) until
  the local clock passes the command's timestamp, then broadcast
  ⟨PREPAREOK ts, clockTs⟩.
* **PREPAREOK** (lines 11-13): update ``LatestTV`` and the replication
  counter.
* **Commit** (lines 14-23): the smallest pending command commits once a
  majority has logged it and no replica can still send a smaller timestamp;
  the replica appends a COMMIT mark, executes the command, and replies to the
  client if the command originated locally.
* **CLOCKTIME** (Algorithm 2): an idle replica periodically broadcasts its
  clock so other replicas' stable-order condition keeps advancing.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Any

from ..config import ClusterSpec
from ..protocols.base import (
    CLOCK_RSM,
    Action,
    Broadcast,
    ClientReply,
    Replica,
    SetTimer,
    Timer,
)
from ..protocols.records import CommandUnit
from ..types import ReplicaId, Timestamp, ZERO_TS
from .messages import (
    ClockTime,
    CommitRecord,
    Prepare,
    PrepareOk,
    PrepareRecord,
)
from .reconfig import ReconfigurationManager
from .recovery import replay_log
from .state import ClockRsmState, PendingCommand

_LOGGER = logging.getLogger(__name__)

#: Timer kinds used by the protocol.
_TIMER_CLOCK_WAIT = "clock-wait"
_TIMER_CLOCKTIME = "clocktime"


class ClockRsmReplica(Replica):
    """One Clock-RSM replica (Algorithm 1 with the Algorithm 2 extension)."""

    protocol_name = CLOCK_RSM

    def __init__(
        self,
        replica_id: ReplicaId,
        spec: ClusterSpec,
        **kwargs: Any,
    ) -> None:
        recover = kwargs.pop("recover", False)
        super().__init__(replica_id, spec, **kwargs)
        #: Current configuration epoch (bumped by every reconfiguration).
        self.epoch = 0
        #: Whether normal-case processing is frozen by a SUSPEND (Alg. 3).
        self.suspended = False
        self.state = ClockRsmState(self.active_config, self.quorum_size)
        #: Timestamp of the last COMMIT mark appended to the log.
        self.last_committed_ts: Timestamp = ZERO_TS
        #: Client units received while suspended, replayed on resume.
        self._parked_requests: deque[CommandUnit] = deque()
        self.reconfig = ReconfigurationManager(self)
        if recover and len(self.log) > 0:
            self._recover_from_log()

    # ------------------------------------------------------------------
    # Startup and recovery
    # ------------------------------------------------------------------

    def start(self) -> list[Action]:
        return [SetTimer(self.make_timer(_TIMER_CLOCKTIME), self.config.clocktime_interval)]

    def _recover_from_log(self) -> None:
        """Replay the stable log into the state machine (Section V-B)."""
        recovered = replay_log(self.log)
        for record in recovered.executed:
            self.execute_unit(record.command)
        self.last_committed_ts = recovered.last_committed_ts
        self.ts_source.observe(recovered.highest_ts.micros)
        # PREPARE entries without a COMMIT mark become pending again; they
        # commit normally once the replica rejoins and hears from a majority.
        for record in recovered.orphans:
            self.state.add_pending(
                PendingCommand(record.command, record.ts, record.ts.replica)
            )
        _LOGGER.info(
            "replica %s recovered %d committed and %d orphan commands from its log",
            self.replica_id,
            len(recovered.executed),
            len(recovered.orphans),
        )

    # ------------------------------------------------------------------
    # Client requests (Algorithm 1, lines 1-3)
    # ------------------------------------------------------------------

    def on_client_request(self, command: CommandUnit) -> list[Action]:
        """Handle a client unit: one timestamp — and one PREPARE round — per
        unit, whether it is a single command or a whole batch."""
        if self.stopped:
            return []
        if self.suspended:
            self._parked_requests.append(command)
            return []
        ts = self.ts_source.next()
        prepare = Prepare(command, ts, self.epoch)
        return [Broadcast(prepare, include_self=True)]

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_message(self, src: ReplicaId, message: Any) -> list[Action]:
        if self.stopped:
            return []
        # The normal-case messages — nearly every message a replica gets —
        # are dispatched by exact type, ahead of the reconfiguration chain
        # (which handles none of them).
        kind = type(message)
        if kind is PrepareOk or kind is Prepare or kind is ClockTime:
            if message.epoch != self.epoch:
                return self._drop_other_epoch(src, message, message.epoch)
            if kind is PrepareOk:
                return self._on_prepare_ok(src, message)
            if kind is Prepare:
                return self._on_prepare(src, message)
            return self._on_clock_time(src, message)
        handled = self.reconfig.handle(src, message)
        if handled is not None:
            return handled
        epoch = getattr(message, "epoch", self.epoch)
        if epoch != self.epoch:
            return self._drop_other_epoch(src, message, epoch)
        _LOGGER.warning(
            "replica %s received unknown message %r from r%s", self.replica_id, message, src
        )
        return []

    def _drop_other_epoch(self, src: ReplicaId, message: Any, epoch: int) -> list[Action]:
        # Stale messages are dropped; messages from a newer epoch mean we
        # missed a reconfiguration — the reconfiguration/state-transfer path
        # is responsible for catching us up.
        _LOGGER.debug(
            "replica %s drops %s from r%s (epoch %s != %s)",
            self.replica_id,
            type(message).__name__,
            src,
            epoch,
            self.epoch,
        )
        return []

    def _on_prepare(self, src: ReplicaId, msg: Prepare) -> list[Action]:
        """Algorithm 1, lines 4-10."""
        if self.suspended:
            # The paper freezes PREPARE processing during reconfiguration;
            # the command either survives via a SUSPENDOK or is re-issued by
            # its client after the new epoch starts.
            return []
        entry = PendingCommand(
            command=msg.command,
            ts=msg.ts,
            origin=msg.ts.replica,
            received_at=self.clock.now(),
        )
        self.state.add_pending(entry)
        if src == msg.ts.replica:
            # LatestTV[k] <- ts: the sender promises monotonic timestamps.
            self.state.observe_clock(src, msg.ts.micros)
        self.log.append(PrepareRecord(msg.command, msg.ts))
        actions: list[Action] = []
        now = self.clock.now()
        if now > msg.ts.micros or not self.config.wait_for_clock:
            actions.extend(self._send_prepare_ok(msg.ts))
        else:
            # Line 8: wait until ts < Clock before acknowledging, i.e. the
            # promise never to send a smaller timestamp afterwards.
            delay = msg.ts.micros - now + 1
            actions.append(SetTimer(self.make_timer(_TIMER_CLOCK_WAIT, msg.ts), delay))
        actions.extend(self._try_commit())
        return actions

    def _send_prepare_ok(self, ts: Timestamp) -> list[Action]:
        """Lines 9-10: acknowledge with a clock reading strictly above *ts*."""
        self.ts_source.observe(ts.micros)
        clock_ts = self.ts_source.next().micros
        return [Broadcast(PrepareOk(ts, clock_ts, self.epoch), include_self=True)]

    def _on_prepare_ok(self, src: ReplicaId, msg: PrepareOk) -> list[Action]:
        """Algorithm 1, lines 11-13."""
        self.state.observe_clock(src, msg.clock_micros)
        # Commits happen in timestamp order, so an ack at or below the last
        # committed timestamp is for a command already committed here (the
        # last of N acks routinely is): recording it would re-create the
        # entry ``remove_pending`` dropped, and nothing would free it again.
        # ``ts > last_committed_ts``, spelled out: no generated ``__gt__``.
        ts, last = msg.ts, self.last_committed_ts
        if ts.micros > last.micros or (ts.micros == last.micros and ts.replica > last.replica):
            self.state.record_ack(ts, src)
        return self._try_commit()

    def _on_clock_time(self, src: ReplicaId, msg: ClockTime) -> list[Action]:
        """Algorithm 2, lines 4-5."""
        self.state.observe_clock(src, msg.clock_micros)
        return self._try_commit()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def on_timer(self, timer: Timer) -> list[Action]:
        if self.stopped:
            return []
        if timer.kind == _TIMER_CLOCK_WAIT:
            ts: Timestamp = timer.payload
            actions: list[Action] = []
            if self.state.has_pending(ts) and not self.suspended:
                actions.extend(self._send_prepare_ok(ts))
            actions.extend(self._try_commit())
            return actions
        if timer.kind == _TIMER_CLOCKTIME:
            return self._on_clocktime_timer()
        return []

    def _on_clocktime_timer(self) -> list[Action]:
        """Algorithm 2, lines 1-3, driven by a periodic timer."""
        actions: list[Action] = []
        interval = self.config.clocktime_interval
        if (
            not self.suspended
            and self.clock.now() >= self.state.latest_tv.get(self.replica_id, 0) + interval
        ):
            reading = self.ts_source.next().micros
            actions.append(Broadcast(ClockTime(reading, self.epoch), include_self=True))
        actions.append(SetTimer(self.make_timer(_TIMER_CLOCKTIME), interval))
        return actions

    # ------------------------------------------------------------------
    # Commit (Algorithm 1, lines 14-23)
    # ------------------------------------------------------------------

    def _try_commit(self) -> list[Action]:
        """Commit and execute every pending command that satisfies the rule."""
        actions: list[Action] = []
        state = self.state
        while True:
            entry = state.next_committable()
            if entry is None:
                return actions
            state.remove_pending(entry.ts)
            self.log.append(CommitRecord(entry.ts))
            for command, output in self.execute_unit(entry.command):
                if entry.origin == self.replica_id:
                    actions.append(ClientReply(command.command_id, output))
            self.last_committed_ts = entry.ts

    # ------------------------------------------------------------------
    # Reconfiguration hooks (used by ReconfigurationManager)
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        """Stop processing REQUEST and PREPARE messages (Alg. 3, line 8)."""
        self.suspended = True

    def resume(self) -> list[Action]:
        """Resume normal processing after a reconfiguration (Alg. 3, line 24)."""
        self.suspended = False
        actions: list[Action] = []
        while self._parked_requests:
            actions.extend(self.on_client_request(self._parked_requests.popleft()))
        return actions

    def install_configuration(self, epoch: int, active: tuple[ReplicaId, ...]) -> None:
        """Install a new epoch and active configuration (Alg. 3, lines 21-23)."""
        self.epoch = epoch
        self.active_config = tuple(sorted(active))
        self.state.resize_config(self.active_config)

    def logged_prepares_above(self, cut: Timestamp) -> tuple[PrepareRecord, ...]:
        """All PREPARE log entries with timestamps greater than *cut*."""
        return tuple(
            record
            for record in self.log.records()
            if isinstance(record, PrepareRecord) and record.ts > cut
        )

    def logged_prepares_between(
        self, low: Timestamp, high: Timestamp
    ) -> tuple[PrepareRecord, ...]:
        """PREPARE entries with ``low < ts <= high`` (state transfer)."""
        return tuple(
            record
            for record in self.log.records()
            if isinstance(record, PrepareRecord) and low < record.ts <= high
        )

    def apply_decided_commands(self, records: tuple[PrepareRecord, ...]) -> None:
        """Apply reconfiguration-decided commands in timestamp order.

        Commands already executed locally (``ts <= last_committed_ts``) are
        skipped; the rest are logged (PREPARE if missing, then COMMIT) and
        executed, exactly as Algorithm 3 lines 16-20 prescribe.
        """
        logged_ts = {
            record.ts for record in self.log.records() if isinstance(record, PrepareRecord)
        }
        for record in sorted(records, key=lambda r: r.ts):
            if record.ts <= self.last_committed_ts:
                continue
            if record.ts not in logged_ts:
                self.log.append(PrepareRecord(record.command, record.ts))
            self.log.append(CommitRecord(record.ts))
            self.execute_unit(record.command)
            self.last_committed_ts = record.ts
            self.state.remove_pending(record.ts)

    def drop_unexecuted_prepares_above(self, cut: Timestamp) -> None:
        """Algorithm 3 line 15: discard un-executed PREPARE entries above *cut*."""
        executed_cut = self.last_committed_ts
        self.log.remove_if(
            lambda record: isinstance(record, PrepareRecord)
            and record.ts > cut
            and record.ts > executed_cut
        )
        self.state.drop_pending_above(cut)


__all__ = ["ClockRsmReplica"]
