"""Append-only, CRC-protected, file-backed command log.

Record framing::

    frame := u32 length | u32 crc32(payload) | payload

The payload is the registry-encoded record.  A torn final frame (partial
write during a crash) is detected by the length/CRC check and discarded on
replay, which matches the usual write-ahead-log recovery contract.  In memory
the log keeps the same packed store as
:class:`~repro.storage.memory_log.InMemoryLog`.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator, Optional, Sequence

from ..errors import LogCorruptionError, StorageError
from ..net.message import MessageRegistry, global_registry
from .log import LogRecord, pack_record
from .memory_log import InMemoryLog

_HEADER = struct.Struct(">II")


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class FileLog(InMemoryLog):
    """A durable command log stored in a single append-only file."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        registry: Optional[MessageRegistry] = None,
        sync_on_append: bool = False,
    ) -> None:
        self._path = Path(path)
        self._registry = registry or global_registry
        self._sync_on_append = sync_on_append
        self._path.parent.mkdir(parents=True, exist_ok=True)
        super().__init__(list(self._replay()) if self._path.exists() else ())
        self._file = open(self._path, "ab")

    # -- CommandLog interface ------------------------------------------------

    def append(self, record: LogRecord) -> int:
        packed = pack_record(record)  # refuse a record without a layout before writing it
        self._file.write(_frame(self._registry.encode(record)))
        self._packed.append(packed)
        if self._sync_on_append:
            self.sync()
        return len(self._packed) - 1

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        super().sync()

    def rewrite(self, records: Sequence[LogRecord]) -> None:
        """Atomically replace the log via write-new-then-rename."""
        frames = [_frame(self._registry.encode(record)) for record in records]
        super().rewrite(records)
        tmp_path = self._path.with_suffix(self._path.suffix + ".tmp")
        with open(tmp_path, "wb") as tmp:
            tmp.writelines(frames)
            tmp.flush()
            os.fsync(tmp.fileno())
        self._file.close()
        os.replace(tmp_path, self._path)
        self._file = open(self._path, "ab")

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    # -- replay ----------------------------------------------------------------

    def _replay(self) -> Iterator[LogRecord]:
        """Yield records from the existing file, tolerating a torn tail."""
        data = self._path.read_bytes()
        offset = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                break  # torn header at the tail: discard
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > len(data):
                break  # torn payload at the tail: discard
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                if end == len(data):
                    break  # corrupted final record: treat as torn write
                raise LogCorruptionError(
                    f"CRC mismatch in {self._path} at offset {offset}"
                )
            try:
                yield self._registry.decode(payload)
            except Exception as exc:  # corrupt payload that passed CRC: refuse
                raise LogCorruptionError(f"undecodable record in {self._path}") from exc
            offset = end
        if offset != len(data):
            # Truncate the torn tail so future appends start at a clean frame.
            with open(self._path, "r+b") as f:
                f.truncate(offset)

    @property
    def path(self) -> Path:
        return self._path


__all__ = ["FileLog"]
