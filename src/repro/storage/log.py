"""The command-log interface shared by all protocols, and the packed record
layout the logs store."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator, Sequence

from ..errors import StorageError

LogRecord = Any
"""A log record is one of the protocols' record dataclasses (PREPARE entries,
COMMIT marks, Paxos accept records, ...).  The log does not interpret records;
the protocol that owns the log does."""

PackedRecord = tuple
"""A log record as the logs hold it: one flat tuple of atoms (``str``,
``int``, ``bytes``, ``bool``) whose first element is the record type's tag.
CPython's cyclic collector untracks such a tuple the first time it examines
it, so the committed past stops costing every later full collection a walk."""

_UNPACKERS: dict[str, Callable[[PackedRecord], LogRecord]] = {}


def packed_record(tag: str) -> Callable[[type], type]:
    """Class decorator for a log record type with a packed layout.

    The class declares its layout itself: ``record.pack()`` returns a
    :data:`PackedRecord` starting with *tag*, and ``cls.unpack(packed)``
    rebuilds a record equal to the one packed.
    """

    def register(cls: type) -> type:
        if tag in _UNPACKERS:
            raise StorageError(f"log record tag {tag!r} is already taken")
        _UNPACKERS[tag] = cls.unpack
        return cls

    return register


def pack_record(record: LogRecord) -> PackedRecord:
    """*record* in its packed layout; a type without one is refused."""
    try:
        return record.pack()
    except AttributeError:
        raise StorageError(f"{type(record).__name__} has no packed log layout") from None


def unpack_record(packed: PackedRecord) -> LogRecord:
    """The record *packed* was made from."""
    return _UNPACKERS[packed[0]](packed)


class CommandLog(ABC):
    """An append-only record log on stable storage.

    The log preserves append order.  Protocols rely on two properties:

    * a record is durable once :meth:`append` (plus :meth:`sync` for
      durability-critical paths) returns, and
    * :meth:`records` replays records in exactly the order they were
      appended, which Clock-RSM's recovery procedure requires (COMMIT marks
      appear in timestamp order and always after their PREPARE entry).
    """

    @abstractmethod
    def append(self, record: LogRecord) -> int:
        """Append *record* and return its zero-based index."""

    @abstractmethod
    def records(self) -> Iterator[LogRecord]:
        """Iterate over all records in append order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of records currently in the log."""

    @abstractmethod
    def sync(self) -> None:
        """Flush buffered records to stable storage."""

    @abstractmethod
    def rewrite(self, records: Sequence[LogRecord]) -> None:
        """Atomically replace the whole log contents with *records*.

        Used by reconfiguration, which removes un-executed PREPARE entries
        with timestamps above the agreed cut (Algorithm 3, line 15).
        """

    # -- convenience helpers -------------------------------------------------

    def append_all(self, records: Sequence[LogRecord]) -> None:
        for record in records:
            self.append(record)

    def remove_if(self, predicate: Callable[[LogRecord], bool]) -> int:
        """Remove records matching *predicate*; returns how many were removed."""
        kept = [r for r in self.records() if not predicate(r)]
        removed = len(self) - len(kept)
        if removed:
            self.rewrite(kept)
        return removed

    def tail(self, count: int) -> list[LogRecord]:
        """The last *count* records (fewer if the log is shorter)."""
        everything = list(self.records())
        return everything[-count:] if count > 0 else []


__all__ = [
    "CommandLog",
    "LogRecord",
    "PackedRecord",
    "packed_record",
    "pack_record",
    "unpack_record",
]
