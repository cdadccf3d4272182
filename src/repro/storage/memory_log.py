"""In-memory command log."""

from __future__ import annotations

from typing import Iterator, Sequence

from .log import CommandLog, LogRecord, PackedRecord, pack_record, unpack_record


class InMemoryLog(CommandLog):
    """A command log held entirely in memory.

    Survives protocol restarts within a process (the owning object can be
    handed to a recovering replica), which is how the simulator models a
    replica that crashes and recovers with its stable storage intact.  The
    ``fsync_count`` counter lets tests and the throughput model account for
    how many durability barriers a protocol issued.

    Records are stored packed (:data:`~repro.storage.log.PackedRecord`), not
    as the record objects appended: a replica keeps every PREPARE entry it
    ever logged, and as objects they would be the bulk of what the cyclic
    collector walks on each full pass.  :meth:`records` rebuilds them.
    """

    def __init__(self, records: Sequence[LogRecord] = ()) -> None:
        self._packed: list[PackedRecord] = [pack_record(r) for r in records]
        self._synced_length = len(self._packed)
        self.fsync_count = 0

    def append(self, record: LogRecord) -> int:
        self._packed.append(pack_record(record))
        return len(self._packed) - 1

    def records(self) -> Iterator[LogRecord]:
        return map(unpack_record, self._packed.copy())

    def __len__(self) -> int:
        return len(self._packed)

    def sync(self) -> None:
        self._synced_length = len(self._packed)
        self.fsync_count += 1

    def rewrite(self, records: Sequence[LogRecord]) -> None:
        self._packed = [pack_record(r) for r in records]
        self._synced_length = len(self._packed)

    @property
    def unsynced_count(self) -> int:
        """Number of records appended since the last :meth:`sync`."""
        return len(self._packed) - self._synced_length

    def snapshot(self) -> list[LogRecord]:
        """A copy of the current records (handy for assertions in tests)."""
        return list(self.records())


__all__ = ["InMemoryLog"]
