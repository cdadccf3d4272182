"""Checkpoints of the replicated state machine.

The paper notes that "checkpointing can be used to avoid replaying the whole
log and speed up the recovery process."  A checkpoint stores the serialized
state-machine snapshot together with the timestamp of the last command folded
into it and the epoch in which it was taken; recovery loads the newest
checkpoint and replays only the log suffix.
"""

from __future__ import annotations

import os
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..errors import CodecError, StorageError
from ..net.message import register_message
from ..types import Timestamp


@register_message
@dataclass(frozen=True, slots=True)
class Checkpoint:
    """A durable snapshot of the state machine.

    Attributes:
        state: Opaque serialized state-machine snapshot.
        last_applied: Timestamp of the last command included in the snapshot.
        epoch: Configuration epoch at the time the snapshot was taken.
        command_count: Number of commands folded into the snapshot (useful
            for sanity checks and metrics; not required for correctness).
    """

    state: bytes
    last_applied: Timestamp
    epoch: int = 0
    command_count: int = 0


class CheckpointStore(ABC):
    """Stores at most one checkpoint per replica (the most recent one)."""

    @abstractmethod
    def save(self, checkpoint: Checkpoint) -> None:
        """Durably store *checkpoint*, replacing any previous one."""

    @abstractmethod
    def load(self) -> Optional[Checkpoint]:
        """Return the stored checkpoint, or ``None`` if none exists."""


class InMemoryCheckpointStore(CheckpointStore):
    """Checkpoint store backed by process memory (simulation and tests)."""

    def __init__(self) -> None:
        self._checkpoint: Optional[Checkpoint] = None

    def save(self, checkpoint: Checkpoint) -> None:
        self._checkpoint = checkpoint

    def load(self) -> Optional[Checkpoint]:
        return self._checkpoint


class FileCheckpointStore(CheckpointStore):
    """Checkpoint store backed by a single file, written atomically.

    Layout: ``u32 crc32(payload) | payload`` where the payload is the
    registry-encoded :class:`Checkpoint`.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        from ..net.message import global_registry

        self._path = Path(path)
        self._registry = global_registry
        self._path.parent.mkdir(parents=True, exist_ok=True)

    def save(self, checkpoint: Checkpoint) -> None:
        payload = self._registry.encode(checkpoint)
        frame = zlib.crc32(payload).to_bytes(4, "big") + payload
        tmp_path = self._path.with_suffix(self._path.suffix + ".tmp")
        with open(tmp_path, "wb") as tmp:
            tmp.write(frame)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, self._path)

    def load(self) -> Optional[Checkpoint]:
        if not self._path.exists():
            return None
        data = self._path.read_bytes()
        if len(data) < 4:
            raise StorageError(f"checkpoint file {self._path} is truncated")
        crc = int.from_bytes(data[:4], "big")
        payload = data[4:]
        if zlib.crc32(payload) != crc:
            raise StorageError(f"checkpoint file {self._path} failed its CRC check")
        try:
            checkpoint = self._registry.decode(payload)
        except CodecError as exc:  # passed its CRC, yet is no value we can read
            raise StorageError(f"checkpoint file {self._path} does not decode: {exc}") from exc
        if not isinstance(checkpoint, Checkpoint):
            raise StorageError(f"checkpoint file {self._path} contains a foreign record")
        return checkpoint


__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "InMemoryCheckpointStore",
    "FileCheckpointStore",
]
