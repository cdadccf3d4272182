"""Soft protocol state of a Clock-RSM replica and the commit rule.

The state corresponds to the paper's ``PendingCmds``, ``LatestTV``, and
``RepCounter`` (Table I).  It is kept separate from the replica class so the
commit rule can be unit- and property-tested in isolation, and so the
latency-attribution tooling can ask *which* of the three commit conditions is
currently blocking a command.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from ..errors import ProtocolError
from ..protocols.records import CommandUnit
from ..types import Micros, ReplicaId, Timestamp

#: A timestamp as the state keys it: ``(micros, replica)``.
_Key = tuple[Micros, ReplicaId]


class CommitStatus(Enum):
    """Why a pending command is (not yet) committable."""

    COMMITTABLE = "committable"
    AWAITING_MAJORITY = "awaiting-majority"
    AWAITING_STABLE_ORDER = "awaiting-stable-order"
    AWAITING_PREFIX = "awaiting-prefix"
    UNKNOWN_COMMAND = "unknown-command"


@dataclass(frozen=True, slots=True)
class PendingCommand:
    """A unit (command or batch) that has been prepared but not committed."""

    command: CommandUnit
    ts: Timestamp
    origin: ReplicaId
    received_at: Micros = 0


class ClockRsmState:
    """The mutable soft state of Algorithm 1.

    Attributes:
        quorum_size: Majority of the replica specification.
        latest_tv: The paper's ``LatestTV`` — for each active replica, the
            greatest clock reading (µs) carried by any message received from
            it.  Because every replica sends messages in timestamp order,
            ``latest_tv[k]`` is a promise that no future message from ``k``
            carries a smaller timestamp.

    Pending commands and acks are keyed by ``(ts.micros, ts.replica)``
    rather than by the :class:`~repro.types.Timestamp`: the tuple sorts in
    the same order, and it hashes and compares in C, where the dataclass's
    generated ``__hash__`` / ``__lt__`` are Python calls — and the commit
    check runs on every PREPARE, PREPAREOK and CLOCKTIME.
    """

    def __init__(self, active_config: Iterable[ReplicaId], quorum_size: int) -> None:
        active = tuple(active_config)
        if quorum_size <= 0 or quorum_size > len(active):
            if quorum_size <= 0:
                raise ProtocolError(f"invalid quorum size {quorum_size}")
        self.quorum_size = quorum_size
        self.latest_tv: dict[ReplicaId, Micros] = {r: 0 for r in active}
        self._pending: dict[_Key, PendingCommand] = {}
        #: Keys of pending commands, smallest first; removed ones are
        #: discarded lazily when they reach the head.
        self._pending_heap: list[_Key] = []
        self._acks: dict[_Key, set[ReplicaId]] = {}

    # -- configuration changes ------------------------------------------------

    def resize_config(self, active_config: Iterable[ReplicaId]) -> None:
        """Resize and update ``LatestTV`` after a reconfiguration (Alg. 3 l.23)."""
        active = tuple(active_config)
        old = self.latest_tv
        self.latest_tv = {r: old.get(r, 0) for r in active}

    # -- pending command bookkeeping -------------------------------------------

    def add_pending(self, entry: PendingCommand) -> None:
        key = (entry.ts.micros, entry.ts.replica)
        if key in self._pending:
            # Duplicate PREPARE (possible after reconfiguration retransmits);
            # keep the first copy, they are identical by construction.
            return
        self._pending[key] = entry
        heapq.heappush(self._pending_heap, key)

    def has_pending(self, ts: Timestamp) -> bool:
        return (ts.micros, ts.replica) in self._pending

    def min_pending(self) -> Optional[PendingCommand]:
        """The pending command with the smallest timestamp, if any."""
        while self._pending_heap:
            key = self._pending_heap[0]
            entry = self._pending.get(key)
            if entry is None:
                heapq.heappop(self._pending_heap)  # lazily discard removed entries
                continue
            return entry
        return None

    def remove_pending(self, ts: Timestamp) -> Optional[PendingCommand]:
        key = (ts.micros, ts.replica)
        self._acks.pop(key, None)
        return self._pending.pop(key, None)

    def drop_pending_above(self, cut: Timestamp) -> list[PendingCommand]:
        """Remove pending commands with timestamps above *cut* (reconfiguration)."""
        cut_key = (cut.micros, cut.replica)
        dropped = [entry for key, entry in self._pending.items() if key > cut_key]
        for entry in dropped:
            self.remove_pending(entry.ts)
        return dropped

    # -- replication acknowledgements ------------------------------------------

    def record_ack(self, ts: Timestamp, replica: ReplicaId) -> int:
        """Record that *replica* logged the command with timestamp *ts*.

        Returns the number of distinct replicas known to have logged it.
        Acks may arrive before the PREPARE itself (the acknowledging replica
        may be closer to the originator than we are), so this state is kept
        independently of ``PendingCmds``.  An ack from a replica outside the
        active configuration (not in ``latest_tv``) counts for nothing, as
        its clock readings do not (:meth:`observe_clock`).
        """
        acks = self._acks.setdefault((ts.micros, ts.replica), set())
        if replica in self.latest_tv:
            acks.add(replica)
        return len(acks)

    def ack_count(self, ts: Timestamp) -> int:
        return len(self._acks.get((ts.micros, ts.replica), ()))

    # -- LatestTV ---------------------------------------------------------------

    def observe_clock(self, replica: ReplicaId, micros: Micros) -> None:
        """Update ``LatestTV[replica]`` with a clock reading carried by a message."""
        latest = self.latest_tv.get(replica)
        # None: a message from a replica outside the active configuration.
        if latest is not None and micros > latest:
            self.latest_tv[replica] = micros

    def min_latest(self) -> Micros:
        """``min(LatestTV)`` over the active configuration."""
        return min(self.latest_tv.values())

    def stable_up_to(self, ts: Timestamp) -> bool:
        """True when no active replica can still send a timestamp below *ts*."""
        return ts.micros <= self.min_latest()

    # -- the commit rule (Algorithm 1, COMMITTED) --------------------------------

    def commit_status(self, ts: Timestamp) -> CommitStatus:
        """Evaluate the three commit conditions for the command at *ts*."""
        if not self.has_pending(ts):
            return CommitStatus.UNKNOWN_COMMAND
        minimum = self.min_pending()
        if minimum is not None and minimum.ts < ts:
            # A smaller-timestamped command is still pending: prefix
            # replication (condition 3) has not been satisfied yet.
            return CommitStatus.AWAITING_PREFIX
        if self.ack_count(ts) < self.quorum_size:
            return CommitStatus.AWAITING_MAJORITY
        if not self.stable_up_to(ts):
            return CommitStatus.AWAITING_STABLE_ORDER
        return CommitStatus.COMMITTABLE

    def next_committable(self) -> Optional[PendingCommand]:
        """The smallest pending command if it satisfies all three conditions.

        Called after every input that can move a condition, and most of
        the time nothing commits: so the head is looked at in place — one
        heap peek, two dictionary lookups on a tuple key, one ``min`` —
        rather than through :meth:`min_pending`, :meth:`ack_count` and
        :meth:`stable_up_to`.
        """
        heap, pending = self._pending_heap, self._pending
        while heap:
            key = heap[0]
            entry = pending.get(key)
            if entry is None:
                heapq.heappop(heap)  # lazily discard removed entries
                continue
            acks = self._acks.get(key)
            if (
                acks is None
                or len(acks) < self.quorum_size
                or key[0] > min(self.latest_tv.values())
            ):
                return None
            return entry
        return None


__all__ = ["ClockRsmState", "PendingCommand", "CommitStatus"]
