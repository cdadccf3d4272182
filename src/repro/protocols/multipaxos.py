"""Multi-Paxos baseline (stable leader, phase 2 only).

The paper's Paxos baseline is classic Multi-Paxos with a designated leader
that has already completed phase 1 for all future instances: a non-leader
replica forwards its client commands to the leader; the leader assigns each
command the next slot and runs phase 2 against all replicas; once a majority
of phase-2b responses arrives, the command is committed and the leader
notifies every replica (which is the fourth message step the Paxos-bcast
variant removes).

Replicas execute slots in order.  Leader changes are out of scope for the
latency/throughput experiments (the paper keeps a static leader per run);
reconfiguration for Clock-RSM is implemented separately in
:mod:`repro.core.reconfig`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

from ..net.message import register_message
from ..types import Command, CommandId, ReplicaId
from .base import (
    PAXOS,
    Action,
    Broadcast,
    ClientReply,
    Replica,
    Send,
    Timer,
)
from .records import AcceptRecord, CommandUnit, DecideRecord, unit_commands
from .slots import SlotLedger

_LOGGER = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True, slots=True)
class Forward:
    """A client unit forwarded from a non-leader replica to the leader."""

    command: CommandUnit


@register_message
@dataclass(frozen=True, slots=True)
class Phase2a:
    """Leader's accept request for *command* (a unit) in *slot*."""

    slot: int
    command: CommandUnit


@register_message
@dataclass(frozen=True, slots=True)
class Phase2b:
    """Acceptor's acknowledgement that it logged the command in *slot*."""

    slot: int


@register_message
@dataclass(frozen=True, slots=True)
class CommitSlot:
    """Leader's commit notification for *slot* (classic Paxos only)."""

    slot: int


# ---------------------------------------------------------------------------
# Replica
# ---------------------------------------------------------------------------


class MultiPaxosReplica(Replica):
    """A Multi-Paxos replica with a statically designated leader."""

    protocol_name = PAXOS
    #: Paxos-bcast overrides this: acceptors broadcast phase-2b messages and
    #: every replica learns commits locally, removing the final leader step.
    broadcast_phase2b = False

    def __init__(self, replica_id: ReplicaId, spec: Any, **kwargs: Any) -> None:
        super().__init__(replica_id, spec, **kwargs)
        self.leader: ReplicaId = self.config.leader
        if self.leader not in spec.replica_ids:
            raise ValueError(f"configured leader {self.leader} is not in the spec")
        self.ledger = SlotLedger(spec.replica_ids)
        #: Next free slot; meaningful only at the leader.
        self.next_slot = 0
        #: Commands this replica originated and has not yet answered.
        self._my_commands: dict[CommandId, Command] = {}

    # -- identity ------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.replica_id == self.leader

    # -- client requests -------------------------------------------------------

    def on_client_request(self, command: CommandUnit) -> list[Action]:
        """Handle a client unit: a single command or a whole batch.

        A batch is ordered as one unit (one slot, one phase-2 round); every
        constituent command is tracked so its client gets its own reply.
        """
        if self.stopped:
            return []
        for constituent in unit_commands(command):
            self._my_commands[constituent.command_id] = constituent
        if self.is_leader:
            return self._propose(command)
        return [Send(self.leader, Forward(command))]

    def _propose(self, command: CommandUnit) -> list[Action]:
        """Leader: assign the next slot and start phase 2."""
        slot = self.next_slot
        self.next_slot += 1
        state = self.ledger.record_command(slot, command)
        self.log.append(AcceptRecord(slot, command))
        state.acks.add(self.replica_id)
        actions: list[Action] = [Broadcast(Phase2a(slot, command), include_self=False)]
        actions.extend(self._maybe_decide(slot))
        return actions

    # -- messages ----------------------------------------------------------------

    def on_message(self, src: ReplicaId, message: Any) -> list[Action]:
        if self.stopped:
            return []
        if isinstance(message, Forward):
            return self._on_forward(src, message)
        if isinstance(message, Phase2a):
            return self._on_phase2a(src, message)
        if isinstance(message, Phase2b):
            return self._on_phase2b(src, message)
        if isinstance(message, CommitSlot):
            return self._on_commit(src, message)
        _LOGGER.warning(
            "replica %s received unknown message %r from r%s", self.replica_id, message, src
        )
        return []

    def _on_forward(self, src: ReplicaId, msg: Forward) -> list[Action]:
        if self.is_leader:
            return self._propose(msg.command)
        # A stale forward (e.g. during a leader change): pass it along.
        return [Send(self.leader, msg)]

    def _on_phase2a(self, src: ReplicaId, msg: Phase2a) -> list[Action]:
        state = self.ledger.record_command(msg.slot, msg.command)
        self.log.append(AcceptRecord(msg.slot, msg.command))
        # This replica accepts the command; the sending leader already has.
        state.acks.add(self.replica_id)
        state.acks.add(src)
        if self.broadcast_phase2b:
            actions: list[Action] = [Broadcast(Phase2b(msg.slot), include_self=False)]
        else:
            actions = [Send(self.leader, Phase2b(msg.slot))]
        actions.extend(self._maybe_decide(msg.slot))
        return actions

    def _on_phase2b(self, src: ReplicaId, msg: Phase2b) -> list[Action]:
        self.ledger.add_ack(msg.slot, src)
        return self._maybe_decide(msg.slot)

    def _on_commit(self, src: ReplicaId, msg: CommitSlot) -> list[Action]:
        state = self.ledger.get(msg.slot)
        if not state.decided:
            state.decided = True
            self.log.append(DecideRecord(msg.slot))
        return self._execute_ready()

    # -- timers -------------------------------------------------------------------

    def on_timer(self, timer: Timer) -> list[Action]:
        return []

    # -- commit and execution -------------------------------------------------------

    def _may_learn_locally(self) -> bool:
        """Whether this replica may conclude commits from quorum counting."""
        return self.broadcast_phase2b or self.is_leader

    def _maybe_decide(self, slot: int) -> list[Action]:
        state = self.ledger.get(slot)
        if state.decided:
            return self._execute_ready()
        if not self._may_learn_locally() or len(state.acks) < self.quorum_size:
            return []
        state.decided = True
        self.log.append(DecideRecord(slot))
        actions: list[Action] = []
        if not self.broadcast_phase2b and self.is_leader:
            # Classic Paxos: the leader is the only replica that learns the
            # outcome from phase 2b and must notify everybody else.
            actions.append(Broadcast(CommitSlot(slot), include_self=False))
        actions.extend(self._execute_ready())
        return actions

    def _execute_ready(self) -> list[Action]:
        actions: list[Action] = []
        for state in self.ledger.pop_executable():
            if state.skipped or state.command is None:
                continue
            for command, output in self.execute_unit(state.command):
                if command.command_id in self._my_commands:
                    del self._my_commands[command.command_id]
                    actions.append(ClientReply(command.command_id, output))
        return actions


__all__ = ["MultiPaxosReplica", "Forward", "Phase2a", "Phase2b", "CommitSlot"]
