"""Mencius baseline: rotating-coordinator state machine replication.

Mencius partitions the slot sequence round-robin among the replicas: replica
``i`` coordinates slots ``i, i+N, i+2N, ...`` and assigns its clients'
commands to its own slots, so every replica proposes without forwarding to a
single leader.  A replica that receives a SUGGEST for a slot beyond its own
next unused slot *skips* its earlier slots (promising never to use them) and
announces the skip, piggybacked on its acknowledgement, so other replicas can
execute past the skipped slots.

This module implements classic Mencius, where acknowledgements go only to the
slot's coordinator and the coordinator broadcasts a commit notification.
:mod:`repro.protocols.mencius_bcast` derives the paper's latency-optimized
variant in which acknowledgements are broadcast and every replica learns
commits locally.

The *delayed commit* problem the paper describes arises naturally here: a
command in slot ``s`` cannot execute until every smaller slot is decided or
known-skipped, so a concurrent command (or a quiet coordinator) owning an
earlier slot delays it by up to a one-way wide-area delay.

Skip-detection relies on FIFO channels (assumed by the paper's model and
provided by both the simulator and the TCP transport): a coordinator sends
the SUGGEST for slot ``s`` before any message announcing a skip bound above
``s``, so "skip bound above ``s`` and no SUGGEST seen" implies ``s`` was
genuinely skipped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

from ..net.message import register_message
from ..types import Command, CommandId, ReplicaId
from .base import (
    MENCIUS,
    Action,
    Broadcast,
    ClientReply,
    Replica,
    Send,
    Timer,
)
from .records import AcceptRecord, CommandUnit, DecideRecord, SkipRecord, unit_commands
from .slots import SlotLedger

_LOGGER = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True, slots=True)
class Suggest:
    """Coordinator's proposal of *command* (a unit) in its own *slot*.

    ``skip_until`` is the coordinator's next unused own slot: a promise that
    it will never propose in any of its own slots below that bound.
    """

    slot: int
    command: CommandUnit
    skip_until: int


@register_message
@dataclass(frozen=True, slots=True)
class MenciusAck:
    """Acknowledgement that the sender logged the command in *slot*.

    Carries the sender's own ``skip_until`` promise so the slot's coordinator
    (and, in the bcast variant, everyone) learns which of the sender's slots
    will never be used.
    """

    slot: int
    skip_until: int


@register_message
@dataclass(frozen=True, slots=True)
class MenciusCommit:
    """Coordinator's commit notification for *slot* (classic Mencius only)."""

    slot: int


@register_message
@dataclass(frozen=True, slots=True)
class SkipAnnounce:
    """Standalone skip announcement (classic Mencius only).

    In the bcast variant skips always travel on broadcast acknowledgements;
    in classic Mencius acknowledgements are unicast, so fresh skip promises
    are additionally broadcast in this small dedicated message to keep every
    replica's execution frontier advancing.
    """

    skip_until: int


class MenciusReplica(Replica):
    """A Mencius replica (classic variant; see :class:`MenciusBcastReplica`)."""

    protocol_name = MENCIUS
    #: The bcast variant broadcasts acknowledgements so every replica counts
    #: quorums locally; the classic variant unicasts them to the coordinator.
    broadcast_acks = False

    def __init__(self, replica_id: ReplicaId, spec: Any, **kwargs: Any) -> None:
        super().__init__(replica_id, spec, **kwargs)
        self.ledger = SlotLedger(spec.replica_ids)
        #: My next unused own slot (initially my replica id).
        self.next_own_slot = self.replica_id
        #: For each replica, the highest skip bound it has announced.
        self.skip_until: dict[ReplicaId, int] = {r: r for r in self.spec.replica_ids}
        self._my_commands: dict[CommandId, Command] = {}

    # -- slot ownership --------------------------------------------------------

    def owner_of(self, slot: int) -> ReplicaId:
        return self.spec.replica_ids[slot % self.spec.size]

    # -- client requests ---------------------------------------------------------

    def on_client_request(self, command: CommandUnit) -> list[Action]:
        """Handle a client unit (single command or batch) in my next own slot."""
        if self.stopped:
            return []
        for constituent in unit_commands(command):
            self._my_commands[constituent.command_id] = constituent
        slot = self.next_own_slot
        self.next_own_slot += self.spec.size
        self.skip_until[self.replica_id] = self.next_own_slot
        state = self.ledger.record_command(slot, command)
        state.acks.add(self.replica_id)
        self.log.append(AcceptRecord(slot, command))
        actions: list[Action] = [
            Broadcast(Suggest(slot, command, self.next_own_slot), include_self=False)
        ]
        actions.extend(self._maybe_decide(slot))
        return actions

    # -- messages -----------------------------------------------------------------

    def on_message(self, src: ReplicaId, message: Any) -> list[Action]:
        if self.stopped:
            return []
        if isinstance(message, Suggest):
            return self._on_suggest(src, message)
        if isinstance(message, MenciusAck):
            return self._on_ack(src, message)
        if isinstance(message, MenciusCommit):
            return self._on_commit(src, message)
        if isinstance(message, SkipAnnounce):
            return self._on_skip_announce(src, message)
        _LOGGER.warning(
            "replica %s received unknown message %r from r%s", self.replica_id, message, src
        )
        return []

    def _on_suggest(self, src: ReplicaId, msg: Suggest) -> list[Action]:
        self._observe_skip(src, msg.skip_until)
        state = self.ledger.record_command(msg.slot, msg.command)
        state.acks.add(self.replica_id)
        state.acks.add(src)
        self.log.append(AcceptRecord(msg.slot, msg.command))
        actions: list[Action] = []
        # Skip my own slots below the suggested one: I promise not to use
        # them so the suggesting replica's command is not blocked on me.
        skipped_any = self._skip_own_slots_below(msg.slot)
        ack = MenciusAck(msg.slot, self.next_own_slot)
        if self.broadcast_acks:
            actions.append(Broadcast(ack, include_self=False))
        else:
            actions.append(Send(src, ack))
            if skipped_any:
                actions.append(Broadcast(SkipAnnounce(self.next_own_slot), include_self=False))
        actions.extend(self._maybe_decide(msg.slot))
        return actions

    def _on_ack(self, src: ReplicaId, msg: MenciusAck) -> list[Action]:
        self._observe_skip(src, msg.skip_until)
        self.ledger.add_ack(msg.slot, src)
        return self._maybe_decide(msg.slot)

    def _on_commit(self, src: ReplicaId, msg: MenciusCommit) -> list[Action]:
        state = self.ledger.get(msg.slot)
        if not state.decided:
            state.decided = True
            self.log.append(DecideRecord(msg.slot))
        return self._execute_ready()

    def _on_skip_announce(self, src: ReplicaId, msg: SkipAnnounce) -> list[Action]:
        self._observe_skip(src, msg.skip_until)
        return self._execute_ready()

    # -- timers ---------------------------------------------------------------------

    def on_timer(self, timer: Timer) -> list[Action]:
        return []

    # -- skip bookkeeping --------------------------------------------------------------

    def _observe_skip(self, replica: ReplicaId, skip_until: int) -> None:
        if skip_until > self.skip_until.get(replica, 0):
            self.skip_until[replica] = skip_until

    def _skip_own_slots_below(self, slot: int) -> bool:
        """Skip all of my unused own slots smaller than *slot*."""
        skipped_any = False
        while self.next_own_slot < slot:
            self.ledger.mark_skipped(self.next_own_slot)
            self.log.append(SkipRecord(self.next_own_slot))
            self.next_own_slot += self.spec.size
            skipped_any = True
        if skipped_any:
            self.skip_until[self.replica_id] = self.next_own_slot
        return skipped_any

    def _implicitly_skipped(self, slot: int) -> bool:
        """True when *slot*'s owner has promised never to use it.

        Valid only when no SUGGEST for the slot has been received: FIFO
        channels guarantee a coordinator's SUGGEST for a slot arrives before
        any of its messages announcing a skip bound above that slot.
        """
        owner = self.owner_of(slot)
        if owner == self.replica_id:
            return False
        state = self.ledger.peek(slot)
        if state is not None and (state.command is not None or state.skipped):
            return False
        return self.skip_until.get(owner, 0) > slot

    # -- commit and execution -------------------------------------------------------------

    def _may_learn_locally(self, slot: int) -> bool:
        return self.broadcast_acks or self.owner_of(slot) == self.replica_id

    def _maybe_decide(self, slot: int) -> list[Action]:
        state = self.ledger.get(slot)
        if state.decided:
            return self._execute_ready()
        if not self._may_learn_locally(slot) or len(state.acks) < self.quorum_size:
            return []
        state.decided = True
        self.log.append(DecideRecord(slot))
        actions: list[Action] = []
        if not self.broadcast_acks and self.owner_of(slot) == self.replica_id:
            actions.append(Broadcast(MenciusCommit(slot), include_self=False))
        actions.extend(self._execute_ready())
        return actions

    def _execute_ready(self) -> list[Action]:
        actions: list[Action] = []
        for state in self.ledger.pop_executable(self._implicitly_skipped):
            if state.skipped or state.command is None:
                continue
            for command, output in self.execute_unit(state.command):
                if command.command_id in self._my_commands:
                    del self._my_commands[command.command_id]
                    actions.append(ClientReply(command.command_id, output))
        return actions


__all__ = ["MenciusReplica", "Suggest", "MenciusAck", "MenciusCommit", "SkipAnnounce"]
