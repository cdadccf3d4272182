"""The packed record layout the command log stores."""

from __future__ import annotations

from typing import Any, Callable

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


__all__ = [
    "LogRecord",
    "PackedRecord",
    "packed_record",
    "pack_record",
    "unpack_record",
]
