"""Clock-RSM reconfiguration (Algorithm 3).

Reconfiguration removes suspected-failed replicas from the active
configuration and reintegrates recovered ones.  It proceeds in three steps:

1. The initiator broadcasts ⟨SUSPEND e, cts⟩ to the full specification,
   freezing normal-case processing, and collects ⟨SUSPENDOK⟩ replies from a
   majority, each carrying the responder's logged PREPARE entries newer than
   the initiator's last commit mark.
2. The initiator proposes (new configuration, cut, collected commands) as
   the ``e``-th consensus instance (single-decree Paxos from
   :mod:`repro.consensus`).
3. Every replica that learns the decision brings itself up to the cut (via
   RETRIEVECMDS state transfer if it lags), discards un-executed PREPARE
   entries above the cut, applies the decided commands in timestamp order,
   installs the new epoch and configuration, and resumes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..config import validate_active_config
from ..consensus.single_paxos import ConsensusDecision, InstanceManager, Outgoing, PaxosMessage
from ..net.message import register_message
from ..protocols.base import Action, Send
from ..types import ReplicaId, Timestamp, majority
from .messages import PrepareRecord, RetrieveCmds, RetrieveReply, Suspend, SuspendOk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .protocol import ClockRsmReplica

_LOGGER = logging.getLogger(__name__)


@register_message
@dataclass(frozen=True, slots=True)
class ReconfigProposal:
    """The value proposed to (and decided by) the per-epoch consensus."""

    config: tuple[ReplicaId, ...]
    cut: Timestamp
    records: tuple[PrepareRecord, ...]


@register_message
@dataclass(frozen=True, slots=True)
class EpochHint:
    """Tells a lagging reconfiguration initiator the receiver's current epoch.

    Sent in response to a SUSPEND whose epoch is not newer than the
    receiver's (typically a replica rejoining after missing one or more
    reconfigurations); the initiator retries with an epoch above the hint.
    """

    epoch: int


@dataclass
class _SuspendCollection:
    """Initiator-side state while collecting SUSPENDOK replies."""

    epoch: int
    new_config: tuple[ReplicaId, ...]
    cut: Timestamp
    replies: dict[ReplicaId, tuple[PrepareRecord, ...]]
    proposed: bool = False


@dataclass
class _PendingDecision:
    """A learned decision waiting for state transfer to complete."""

    epoch: int
    proposal: ReconfigProposal
    low: Timestamp
    high: Timestamp
    replies: dict[ReplicaId, tuple[PrepareRecord, ...]]


class ReconfigurationManager:
    """Implements Algorithm 3 on behalf of a :class:`ClockRsmReplica`."""

    def __init__(self, replica: "ClockRsmReplica") -> None:
        self._replica = replica
        self._instances = InstanceManager(replica.replica_id, replica.spec.size)
        self._collections: dict[int, _SuspendCollection] = {}
        self._pending_decision: Optional[_PendingDecision] = None
        self._desired_config: Optional[tuple[ReplicaId, ...]] = None
        #: Highest epoch this replica has heard of (possibly above its own,
        #: when it missed reconfigurations while crashed).
        self._epoch_floor = 0

    # ------------------------------------------------------------------
    # RECONFIGURE (initiator side)
    # ------------------------------------------------------------------

    def trigger(self, new_config: tuple[ReplicaId, ...]) -> list[Action]:
        """Start a reconfiguration towards *new_config* (Alg. 3, lines 1-6).

        Raises :class:`~repro.errors.ConfigurationError` unless *new_config*
        is a majority of distinct replicas of the specification.
        """
        replica = self._replica
        self._desired_config = validate_active_config(replica.spec, new_config)
        epoch = max(replica.epoch, self._epoch_floor) + 1
        cut = replica.last_committed_ts
        self._collections[epoch] = _SuspendCollection(
            epoch=epoch, new_config=self._desired_config, cut=cut, replies={}
        )
        _LOGGER.info(
            "replica %s initiates reconfiguration to epoch %s with config %s",
            replica.replica_id,
            epoch,
            self._desired_config,
        )
        suspend = Suspend(epoch, cut)
        return [Send(dst, suspend) for dst in replica.spec.replica_ids]

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def handle(self, src: ReplicaId, message: Any) -> Optional[list[Action]]:
        """Handle a reconfiguration-related message; None if not ours."""
        if isinstance(message, Suspend):
            return self._on_suspend(src, message)
        if isinstance(message, SuspendOk):
            return self._on_suspend_ok(src, message)
        if isinstance(message, RetrieveCmds):
            return self._on_retrieve(src, message)
        if isinstance(message, RetrieveReply):
            return self._on_retrieve_reply(src, message)
        if isinstance(message, EpochHint):
            return self._on_epoch_hint(src, message)
        if isinstance(message, PaxosMessage):
            return self._on_consensus(src, message)
        return None

    # ------------------------------------------------------------------
    # SUSPEND / SUSPENDOK
    # ------------------------------------------------------------------

    def _on_suspend(self, src: ReplicaId, msg: Suspend) -> list[Action]:
        replica = self._replica
        if msg.epoch <= replica.epoch:
            # The initiator is behind (e.g. it is rejoining after missing a
            # reconfiguration); tell it which epoch the system has reached.
            return [Send(src, EpochHint(replica.epoch))]
        replica.freeze()
        records = replica.logged_prepares_above(msg.commit_ts)
        return [Send(src, SuspendOk(msg.epoch, records))]

    def _on_epoch_hint(self, src: ReplicaId, msg: EpochHint) -> list[Action]:
        if msg.epoch <= max(self._replica.epoch, self._epoch_floor):
            return []
        self._epoch_floor = msg.epoch
        if self._desired_config is None:
            return []
        # Retry the desired reconfiguration with an epoch above the hint.
        return self.trigger(self._desired_config)

    def _on_suspend_ok(self, src: ReplicaId, msg: SuspendOk) -> list[Action]:
        collection = self._collections.get(msg.epoch)
        if collection is None or collection.proposed:
            return []
        collection.replies[src] = msg.records
        if len(collection.replies) < majority(self._replica.spec.size):
            return []
        collection.proposed = True
        merged: dict[Timestamp, PrepareRecord] = {}
        for records in collection.replies.values():
            for record in records:
                merged.setdefault(record.ts, record)
        proposal = ReconfigProposal(
            config=collection.new_config,
            cut=collection.cut,
            records=tuple(merged[ts] for ts in sorted(merged)),
        )
        outgoing = self._instances.propose(collection.epoch, proposal)
        return self._to_actions(outgoing)

    # ------------------------------------------------------------------
    # Consensus plumbing
    # ------------------------------------------------------------------

    def _on_consensus(self, src: ReplicaId, message: Any) -> list[Action]:
        outgoing, decision = self._instances.on_message(src, message)
        actions = self._to_actions(outgoing)
        if decision is not None:
            actions.extend(self._on_decide(decision))
        return actions

    def _to_actions(self, outgoing: list[Outgoing]) -> list[Action]:
        """Expand consensus messages to the full specification (incl. self)."""
        actions: list[Action] = []
        for out in outgoing:
            if out.dst is None:
                actions.extend(
                    Send(dst, out.message) for dst in self._replica.spec.replica_ids
                )
            else:
                actions.append(Send(out.dst, out.message))
        return actions

    # ------------------------------------------------------------------
    # DECIDE and state transfer
    # ------------------------------------------------------------------

    def _on_decide(self, decision: ConsensusDecision) -> list[Action]:
        replica = self._replica
        epoch = decision.instance
        proposal = decision.value
        if epoch <= replica.epoch or not isinstance(proposal, ReconfigProposal):
            return []
        local_cut = replica.last_committed_ts
        if proposal.cut > local_cut:
            # We lag behind the decided cut: fetch the missing prefix from a
            # majority before applying the decision (Alg. 3, lines 13-14).
            self._pending_decision = _PendingDecision(
                epoch=epoch,
                proposal=proposal,
                low=local_cut,
                high=proposal.cut,
                replies={},
            )
            request = RetrieveCmds(local_cut, proposal.cut)
            return [Send(dst, request) for dst in replica.spec.replica_ids]
        return self._complete(epoch, proposal, extra=())

    def _on_retrieve(self, src: ReplicaId, msg: RetrieveCmds) -> list[Action]:
        records = self._replica.logged_prepares_between(msg.from_ts, msg.to_ts)
        return [Send(src, RetrieveReply(records, msg.from_ts, msg.to_ts))]

    def _on_retrieve_reply(self, src: ReplicaId, msg: RetrieveReply) -> list[Action]:
        pending = self._pending_decision
        if pending is None or (msg.from_ts, msg.to_ts) != (pending.low, pending.high):
            return []
        pending.replies[src] = msg.records
        if len(pending.replies) < majority(self._replica.spec.size):
            return []
        merged: dict[Timestamp, PrepareRecord] = {}
        for records in pending.replies.values():
            for record in records:
                merged.setdefault(record.ts, record)
        extra = tuple(merged[ts] for ts in sorted(merged))
        self._pending_decision = None
        return self._complete(pending.epoch, pending.proposal, extra=extra)

    def _complete(
        self, epoch: int, proposal: ReconfigProposal, extra: tuple[PrepareRecord, ...]
    ) -> list[Action]:
        """Apply a decided reconfiguration (Alg. 3, lines 11-24)."""
        replica = self._replica
        replica.drop_unexecuted_prepares_above(proposal.cut)
        replica.apply_decided_commands(extra + proposal.records)
        replica.install_configuration(epoch, proposal.config)
        self._collections.pop(epoch, None)
        _LOGGER.info(
            "replica %s installed epoch %s with configuration %s",
            replica.replica_id,
            epoch,
            proposal.config,
        )
        actions = replica.resume()
        # If this replica wanted a different configuration (e.g. it is trying
        # to rejoin but a concurrent reconfiguration decided without it),
        # immediately start another round for the desired configuration.
        if (
            self._desired_config is not None
            and replica.replica_id in self._desired_config
            and tuple(sorted(replica.active_config)) != self._desired_config
        ):
            actions.extend(self.trigger(self._desired_config))
        else:
            self._desired_config = None
        return actions


__all__ = ["ReconfigurationManager", "ReconfigProposal"]
