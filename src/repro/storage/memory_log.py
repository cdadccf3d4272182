"""In-memory command log."""

from __future__ import annotations

from typing import Callable, Iterator

from .log import LogRecord, PackedRecord, pack_record, unpack_record


class InMemoryLog:
    """An append-only record log held entirely in memory.

    The log preserves append order: :meth:`records` replays records in
    exactly the order they were appended, which Clock-RSM's recovery
    procedure requires (COMMIT marks appear in timestamp order and always
    after their PREPARE entry).

    Survives protocol restarts within a process (the owning object can be
    handed to a recovering replica), which is how the simulator models a
    replica that crashes and recovers with its stable storage intact.

    Records are stored packed (:data:`~repro.storage.log.PackedRecord`), not
    as the record objects appended: a replica keeps every PREPARE entry it
    ever logged, and as objects they would be the bulk of what the cyclic
    collector walks on each full pass.  :meth:`records` rebuilds them.
    """

    def __init__(self) -> None:
        self._packed: list[PackedRecord] = []

    def append(self, record: LogRecord) -> int:
        """Append *record* and return its zero-based index."""
        self._packed.append(pack_record(record))
        return len(self._packed) - 1

    def records(self) -> Iterator[LogRecord]:
        """Iterate over all records in append order."""
        return map(unpack_record, self._packed.copy())

    def __len__(self) -> int:
        return len(self._packed)

    def remove_if(self, predicate: Callable[[LogRecord], bool]) -> int:
        """Remove records matching *predicate*; returns how many were removed.

        Used by reconfiguration, which removes un-executed PREPARE entries
        with timestamps above the agreed cut (Algorithm 3, line 15).
        """
        kept = [packed for packed in self._packed if not predicate(unpack_record(packed))]
        removed = len(self._packed) - len(kept)
        self._packed = kept
        return removed


__all__ = ["InMemoryLog"]
