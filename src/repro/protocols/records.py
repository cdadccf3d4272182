"""Log records and the command-batch unit shared by every protocol.

Besides the slot records of the Paxos/Mencius baselines, this module defines
:class:`CommandBatch` — the unit of agreement when batching is enabled.  The
protocols order *units* (a single :class:`~repro.types.Command` or a batch of
them); one protocol round then amortizes its message cost over every command
in the batch, which is the throughput lever the paper's implementation notes
describe (and the `[batching]` experiment table exposes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from ..errors import ProtocolError
from ..net.message import register_message
from ..storage.log import PackedRecord, packed_record
from ..types import Command, CommandId


@register_message
@dataclass(frozen=True, slots=True)
class CommandBatch:
    """An ordered group of client commands agreed on as one unit.

    A batch occupies one slot / one timestamp: the protocol replicates and
    commits it with a single round, then executes the constituent commands
    in batch order.  Consistency is unaffected — the execution order, the
    stable log, and the checker all see the constituent commands
    individually — only the per-command message cost changes.
    """

    commands: tuple[Command, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "commands", tuple(self.commands))
        if not self.commands:
            raise ProtocolError("a command batch cannot be empty")

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self) -> Iterator[Command]:
        return iter(self.commands)

    @property
    def size(self) -> int:
        """Total payload bytes across the batch (throughput model input)."""
        return sum(command.size for command in self.commands)


#: What protocols order: a single command or a batch of them.
CommandUnit = Union[Command, CommandBatch]


def unit_commands(unit: CommandUnit) -> tuple[Command, ...]:
    """The constituent commands of a unit, in execution order."""
    if isinstance(unit, CommandBatch):
        return unit.commands
    return (unit,)


def make_unit(commands: Sequence[Command]) -> CommandUnit:
    """Wrap *commands* into the smallest unit: bare command or batch.

    A singleton stays a plain :class:`~repro.types.Command`, so batching
    with ``max_batch = 1`` (or an idle accumulation window) is
    wire-compatible with an unbatched deployment.
    """
    if len(commands) == 1:
        return commands[0]
    return CommandBatch(tuple(commands))


def pack_unit(unit: CommandUnit) -> tuple:
    """A unit's packed layout: ``is_batch``, then ``client, seqno, payload,
    created_at`` per command in batch order — flat, so a log record holding
    it is one tuple of atoms however many commands it carries."""
    if type(unit) is CommandBatch:
        flat: list = [True]
        for command in unit.commands:
            command_id = command.command_id
            flat += (command_id.client, command_id.seqno, command.payload, command.created_at)
        return tuple(flat)
    command_id = unit.command_id
    return (False, command_id.client, command_id.seqno, unit.payload, unit.created_at)


def unpack_unit(packed: PackedRecord, start: int) -> CommandUnit:
    """The unit :func:`pack_unit` laid out from ``packed[start]`` on."""
    commands = [
        Command(CommandId(packed[i], packed[i + 1]), packed[i + 2], packed[i + 3])
        for i in range(start + 1, len(packed), 4)
    ]
    return CommandBatch(tuple(commands)) if packed[start] else commands[0]


@packed_record("accept")
@register_message
@dataclass(frozen=True, slots=True)
class AcceptRecord:
    """A unit accepted into *slot* (Paxos phase-2 accept / Mencius suggest).

    Packed: ``("accept", slot, *pack_unit(command))``.
    """

    slot: int
    command: CommandUnit

    def pack(self) -> PackedRecord:
        return ("accept", self.slot) + pack_unit(self.command)

    @staticmethod
    def unpack(packed: PackedRecord) -> "AcceptRecord":
        return AcceptRecord(packed[1], unpack_unit(packed, 2))


@packed_record("decide")
@register_message
@dataclass(frozen=True, slots=True)
class DecideRecord:
    """Slot *slot* is known decided (commit mark for slot-based protocols).

    Packed: ``("decide", slot)``.
    """

    slot: int

    def pack(self) -> PackedRecord:
        return ("decide", self.slot)

    @staticmethod
    def unpack(packed: PackedRecord) -> "DecideRecord":
        return DecideRecord(packed[1])


@packed_record("skip")
@register_message
@dataclass(frozen=True, slots=True)
class SkipRecord:
    """Slot *slot* was skipped (Mencius no-op).

    Packed: ``("skip", slot)``.
    """

    slot: int

    def pack(self) -> PackedRecord:
        return ("skip", self.slot)

    @staticmethod
    def unpack(packed: PackedRecord) -> "SkipRecord":
        return SkipRecord(packed[1])


__all__ = [
    "CommandBatch",
    "CommandUnit",
    "unit_commands",
    "make_unit",
    "pack_unit",
    "unpack_unit",
    "AcceptRecord",
    "DecideRecord",
    "SkipRecord",
]
