"""Clock-RSM protocol messages and log records.

Message names follow Algorithm 1/2/3 of the paper.  Every type is a frozen
dataclass registered with the global message registry so it can cross the TCP
transport.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.message import register_message
from ..protocols.records import CommandUnit, pack_unit, unpack_unit
from ..storage.log import PackedRecord, packed_record
from ..types import Micros, Timestamp

# ---------------------------------------------------------------------------
# Normal-case replication messages (Algorithm 1 and 2)
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True, slots=True)
class Prepare:
    """⟨PREPARE cmd, ts⟩ — logging request broadcast by the originating replica.

    ``command`` is a unit: a single client command or a
    :class:`~repro.protocols.records.CommandBatch` sharing one timestamp.
    """

    command: CommandUnit
    ts: Timestamp
    epoch: int = 0


@register_message
@dataclass(frozen=True, slots=True)
class PrepareOk:
    """⟨PREPAREOK ts, clockTs⟩ — broadcast after the command is on stable storage.

    ``clock_micros`` is the acknowledging replica's clock reading, strictly
    greater than ``ts.micros``; it doubles as the acknowledger's promise never
    to send a smaller timestamp afterwards.
    """

    ts: Timestamp
    clock_micros: Micros
    epoch: int = 0


@register_message
@dataclass(frozen=True, slots=True)
class ClockTime:
    """⟨CLOCKTIME ts⟩ — periodic idle clock broadcast (Algorithm 2)."""

    clock_micros: Micros
    epoch: int = 0


# ---------------------------------------------------------------------------
# Log records
# ---------------------------------------------------------------------------


@packed_record("prepare")
@register_message
@dataclass(frozen=True, slots=True)
class PrepareRecord:
    """Log record for a PREPARE entry; the originating replica is ``ts.replica``.

    Packed: ``("prepare", ts.micros, ts.replica, *pack_unit(command))``.
    """

    command: CommandUnit
    ts: Timestamp

    def pack(self) -> PackedRecord:
        ts = self.ts
        return ("prepare", ts.micros, ts.replica) + pack_unit(self.command)

    @staticmethod
    def unpack(packed: PackedRecord) -> "PrepareRecord":
        return PrepareRecord(unpack_unit(packed, 3), Timestamp(packed[1], packed[2]))


@packed_record("commit")
@register_message
@dataclass(frozen=True, slots=True)
class CommitRecord:
    """Log record marking the commit of the command with timestamp ``ts``.

    Commit marks are appended in timestamp order, always after the matching
    :class:`PrepareRecord`, which is what recovery relies on.

    Packed: ``("commit", ts.micros, ts.replica)``.
    """

    ts: Timestamp

    def pack(self) -> PackedRecord:
        ts = self.ts
        return ("commit", ts.micros, ts.replica)

    @staticmethod
    def unpack(packed: PackedRecord) -> "CommitRecord":
        return CommitRecord(Timestamp(packed[1], packed[2]))


# ---------------------------------------------------------------------------
# Reconfiguration messages (Algorithm 3)
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True, slots=True)
class Suspend:
    """⟨SUSPEND e, cts⟩ — freeze request sent by the reconfiguration initiator."""

    epoch: int
    commit_ts: Timestamp


@register_message
@dataclass(frozen=True, slots=True)
class SuspendOk:
    """⟨SUSPENDOK e, cmds⟩ — logged commands newer than the initiator's cut."""

    epoch: int
    records: tuple[PrepareRecord, ...]


@register_message
@dataclass(frozen=True, slots=True)
class RetrieveCmds:
    """⟨RETRIEVECMDS from, to⟩ — state-transfer request for a timestamp range."""

    from_ts: Timestamp
    to_ts: Timestamp


@register_message
@dataclass(frozen=True, slots=True)
class RetrieveReply:
    """⟨RETRIEVEREPLY cmds⟩ — logged commands within the requested range."""

    records: tuple[PrepareRecord, ...]
    from_ts: Timestamp
    to_ts: Timestamp


__all__ = [
    "Prepare",
    "PrepareOk",
    "ClockTime",
    "PrepareRecord",
    "CommitRecord",
    "Suspend",
    "SuspendOk",
    "RetrieveCmds",
    "RetrieveReply",
]
