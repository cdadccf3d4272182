"""Sans-IO single-decree Paxos.

One :class:`PaxosInstance` decides one value among the replicas of a cluster
specification.  The reconfiguration protocol creates one instance per epoch
(:class:`InstanceManager` handles the multiplexing).  The implementation is a
textbook synod: unique ballots are formed as ``round * N + replica_id``, a
proposer runs phase 1 before phase 2 unless it owns the default round-0
ballot of the instance, and the first proposer to gather a phase-2 quorum
broadcasts a LEARN so every replica decides.

The instance is sans-IO in the same style as :mod:`repro.protocols.base`:
callers feed messages in and get ``(outgoing messages, decided value)`` back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..net.message import register_message
from ..types import ReplicaId, majority


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True, slots=True)
class PaxosP1a:
    instance: int
    ballot: int


@register_message
@dataclass(frozen=True, slots=True)
class PaxosP1b:
    instance: int
    ballot: int
    accepted_ballot: int
    accepted_value: Any


@register_message
@dataclass(frozen=True, slots=True)
class PaxosP2a:
    instance: int
    ballot: int
    value: Any


@register_message
@dataclass(frozen=True, slots=True)
class PaxosP2b:
    instance: int
    ballot: int


@register_message
@dataclass(frozen=True, slots=True)
class PaxosLearn:
    instance: int
    value: Any


PaxosMessage = (PaxosP1a, PaxosP1b, PaxosP2a, PaxosP2b, PaxosLearn)


@dataclass(frozen=True, slots=True)
class Outgoing:
    """A message the instance wants sent; ``dst=None`` means broadcast."""

    dst: Optional[ReplicaId]
    message: Any


@dataclass(frozen=True, slots=True)
class ConsensusDecision:
    """A decided consensus instance."""

    instance: int
    value: Any


# ---------------------------------------------------------------------------
# Single instance
# ---------------------------------------------------------------------------


class PaxosInstance:
    """Proposer + acceptor + learner roles for one consensus instance."""

    def __init__(self, instance: int, replica_id: ReplicaId, cluster_size: int) -> None:
        self.instance = instance
        self.replica_id = replica_id
        self.quorum = majority(cluster_size)
        # Acceptor state.
        self._promised_ballot = -1
        self._accepted_ballot = -1
        self._accepted_value: Any = None
        # Proposer state.
        self._my_ballot: Optional[int] = None
        self._proposal: Any = None
        self._p1b_values: dict[ReplicaId, tuple[int, Any]] = {}
        self._p2b_acks: set[ReplicaId] = set()
        # Learner state.
        self.decided_value: Any = None
        self.decided = False

    # -- proposer --------------------------------------------------------------

    def propose(self, value: Any) -> list[Outgoing]:
        """Start proposing *value*; returns the messages to send.

        A proposer's ballot is its replica id: there is one round, and a
        proposer that loses learns the winner's decision.  Replica 0's ballot
        may skip phase 1 (no smaller ballot can exist), every other proposer
        runs the full two-phase synod.
        """
        if self.decided:
            return []
        self._proposal = value
        self._my_ballot = self.replica_id
        self._p1b_values = {}
        self._p2b_acks = set()
        if self._my_ballot == 0:
            # The lowest possible ballot: phase 1 cannot learn anything.
            return self._start_phase2(self._proposal)
        return [Outgoing(None, PaxosP1a(self.instance, self._my_ballot))]

    def _start_phase2(self, value: Any) -> list[Outgoing]:
        assert self._my_ballot is not None
        self._p2b_acks = set()
        self._phase2_value = value
        return [Outgoing(None, PaxosP2a(self.instance, self._my_ballot, value))]

    # -- message handling --------------------------------------------------------

    def on_message(self, src: ReplicaId, message: Any) -> tuple[list[Outgoing], Optional[ConsensusDecision]]:
        """Feed one consensus message; returns (outgoing, decision-if-any)."""
        if self.decided and not isinstance(message, PaxosLearn):
            return [], ConsensusDecision(self.instance, self.decided_value)
        if isinstance(message, PaxosP1a):
            return self._on_p1a(src, message), None
        if isinstance(message, PaxosP1b):
            return self._on_p1b(src, message), None
        if isinstance(message, PaxosP2a):
            return self._on_p2a(src, message), None
        if isinstance(message, PaxosP2b):
            outgoing = self._on_p2b(src, message)
            decision = (
                ConsensusDecision(self.instance, self.decided_value) if self.decided else None
            )
            return outgoing, decision
        if isinstance(message, PaxosLearn):
            return [], self._on_learn(message)
        return [], None

    def _on_p1a(self, src: ReplicaId, msg: PaxosP1a) -> list[Outgoing]:
        if msg.ballot <= self._promised_ballot:
            return []
        self._promised_ballot = msg.ballot
        reply = PaxosP1b(self.instance, msg.ballot, self._accepted_ballot, self._accepted_value)
        return [Outgoing(src, reply)]

    def _on_p1b(self, src: ReplicaId, msg: PaxosP1b) -> list[Outgoing]:
        if msg.ballot != self._my_ballot:
            return []
        self._p1b_values[src] = (msg.accepted_ballot, msg.accepted_value)
        if len(self._p1b_values) < self.quorum:
            return []
        # Adopt the value accepted under the highest ballot, if any.
        best_ballot, best_value = -1, None
        for accepted_ballot, accepted_value in self._p1b_values.values():
            if accepted_ballot > best_ballot:
                best_ballot, best_value = accepted_ballot, accepted_value
        value = best_value if best_ballot >= 0 else self._proposal
        self._p1b_values = {}  # quorum reached; further 1b messages are ignored
        return self._start_phase2(value)

    def _on_p2a(self, src: ReplicaId, msg: PaxosP2a) -> list[Outgoing]:
        if msg.ballot < self._promised_ballot:
            return []
        self._promised_ballot = msg.ballot
        self._accepted_ballot = msg.ballot
        self._accepted_value = msg.value
        return [Outgoing(src, PaxosP2b(self.instance, msg.ballot))]

    def _on_p2b(self, src: ReplicaId, msg: PaxosP2b) -> list[Outgoing]:
        if msg.ballot != self._my_ballot:
            return []
        self._p2b_acks.add(src)
        if len(self._p2b_acks) < self.quorum or self.decided:
            return []
        self.decided = True
        self.decided_value = self._phase2_value
        return [Outgoing(None, PaxosLearn(self.instance, self.decided_value))]

    def _on_learn(self, msg: PaxosLearn) -> ConsensusDecision:
        self.decided = True
        self.decided_value = msg.value
        return ConsensusDecision(self.instance, msg.value)


# ---------------------------------------------------------------------------
# Multiplexer
# ---------------------------------------------------------------------------


class InstanceManager:
    """Multiplexes many Paxos instances (one per reconfiguration epoch)."""

    def __init__(self, replica_id: ReplicaId, cluster_size: int) -> None:
        self._replica_id = replica_id
        self._cluster_size = cluster_size
        self._instances: dict[int, PaxosInstance] = {}

    def instance(self, number: int) -> PaxosInstance:
        existing = self._instances.get(number)
        if existing is None:
            existing = PaxosInstance(number, self._replica_id, self._cluster_size)
            self._instances[number] = existing
        return existing

    def propose(self, number: int, value: Any) -> list[Outgoing]:
        return self.instance(number).propose(value)

    def on_message(
        self, src: ReplicaId, message: Any
    ) -> tuple[list[Outgoing], Optional[ConsensusDecision]]:
        if not isinstance(message, PaxosMessage):
            return [], None
        return self.instance(message.instance).on_message(src, message)


__all__ = [
    "PaxosP1a",
    "PaxosP1b",
    "PaxosP2a",
    "PaxosP2b",
    "PaxosLearn",
    "Outgoing",
    "ConsensusDecision",
    "PaxosInstance",
    "InstanceManager",
]
