"""Tests for command logs and checkpoints."""

from __future__ import annotations

import zlib

import pytest

from repro.core.messages import CommitRecord, PrepareRecord
from repro.errors import CodecError, LogCorruptionError, StorageError
from repro.storage.checkpoint import (
    Checkpoint,
    FileCheckpointStore,
    InMemoryCheckpointStore,
)
from repro.storage.file_log import FileLog
from repro.storage.memory_log import InMemoryLog
from repro.net.wire import encode
from repro.types import Command, CommandId, Timestamp


def _prepare(i: int) -> PrepareRecord:
    return PrepareRecord(Command(CommandId("c", i), bytes([i % 256])), Timestamp(i * 10, 0))


class TestInMemoryLog:
    def test_append_and_replay_order(self):
        log = InMemoryLog()
        for i in range(5):
            assert log.append(_prepare(i)) == i
        assert [r.ts.micros for r in log.records()] == [0, 10, 20, 30, 40]
        assert len(log) == 5

    def test_sync_tracks_unsynced_records(self):
        log = InMemoryLog()
        log.append(_prepare(1))
        assert log.unsynced_count == 1
        log.sync()
        assert log.unsynced_count == 0
        assert log.fsync_count == 1

    def test_rewrite_replaces_contents(self):
        log = InMemoryLog([_prepare(i) for i in range(4)])
        log.rewrite([_prepare(9)])
        assert [r.ts.micros for r in log.records()] == [90]

    def test_remove_if(self):
        log = InMemoryLog([_prepare(i) for i in range(6)])
        removed = log.remove_if(lambda r: r.ts.micros >= 30)
        assert removed == 3
        assert len(log) == 3

    def test_tail(self):
        log = InMemoryLog([_prepare(i) for i in range(6)])
        assert [r.ts.micros for r in log.tail(2)] == [40, 50]
        assert log.tail(0) == []

    def test_append_all(self):
        log = InMemoryLog()
        log.append_all([_prepare(0), _prepare(1)])
        assert len(log) == 2


class TestFileLog:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "wal" / "replica0.log"
        log = FileLog(path)
        records = [_prepare(i) for i in range(10)] + [CommitRecord(Timestamp(10, 0))]
        for record in records:
            log.append(record)
        log.sync()
        log.close()

        reloaded = FileLog(path)
        assert list(reloaded.records()) == records
        reloaded.close()

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "replica.log"
        log = FileLog(path)
        log.append(_prepare(1))
        log.append(_prepare(2))
        log.sync()
        log.close()

        # Simulate a crash in the middle of the last frame.
        data = path.read_bytes()
        path.write_bytes(data[:-3])

        reloaded = FileLog(path)
        assert [r.ts.micros for r in reloaded.records()] == [10]
        # Appending after truncation keeps the log consistent.
        reloaded.append(_prepare(3))
        reloaded.sync()
        reloaded.close()
        again = FileLog(path)
        assert [r.ts.micros for r in again.records()] == [10, 30]
        again.close()

    def test_corruption_in_the_middle_is_detected(self, tmp_path):
        path = tmp_path / "replica.log"
        log = FileLog(path)
        log.append(_prepare(1))
        log.append(_prepare(2))
        log.append(_prepare(3))
        log.sync()
        log.close()

        data = bytearray(path.read_bytes())
        data[15] ^= 0xFF  # flip a payload byte of the first record
        path.write_bytes(bytes(data))
        with pytest.raises(LogCorruptionError):
            FileLog(path)

    def test_rewrite_is_atomic_and_durable(self, tmp_path):
        path = tmp_path / "replica.log"
        log = FileLog(path)
        for i in range(5):
            log.append(_prepare(i))
        log.rewrite([_prepare(7)])
        log.append(_prepare(8))
        log.close()

        reloaded = FileLog(path)
        assert [r.ts.micros for r in reloaded.records()] == [70, 80]
        reloaded.close()

    def test_sync_on_append(self, tmp_path):
        log = FileLog(tmp_path / "wal.log", sync_on_append=True)
        log.append(_prepare(1))
        assert log.fsync_count == 1
        log.close()


class TestCheckpointStores:
    def test_in_memory_round_trip(self):
        store = InMemoryCheckpointStore()
        assert store.load() is None
        checkpoint = Checkpoint(b"state", Timestamp(100, 1), epoch=2, command_count=7)
        store.save(checkpoint)
        assert store.load() == checkpoint

    def test_file_round_trip(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpt" / "snap.bin")
        assert store.load() is None
        checkpoint = Checkpoint(b"\x00" * 100, Timestamp(5, 0), epoch=1, command_count=3)
        store.save(checkpoint)
        assert store.load() == checkpoint
        # Overwriting keeps only the newest checkpoint.
        newer = Checkpoint(b"newer", Timestamp(9, 0), epoch=2, command_count=5)
        store.save(newer)
        assert store.load() == newer

    def test_corrupted_checkpoint_detected(self, tmp_path):
        path = tmp_path / "snap.bin"
        store = FileCheckpointStore(path)
        store.save(Checkpoint(b"state", Timestamp(1, 0)))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            store.load()

    def test_truncated_checkpoint_detected(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(StorageError):
            FileCheckpointStore(path).load()

    @pytest.mark.parametrize(
        "payload",
        [
            b"Zjunk",  # no value at all
            encode(7) + b"tail",  # trailing bytes
            # A checkpoint with its fields out of their declared order.
            b"O" + encode("Checkpoint") + encode(
                {"last_applied": None, "state": b"s", "epoch": 0, "command_count": 0}
            ),
        ],
        ids=["garbage", "trailing", "reordered-fields"],
    )
    def test_a_payload_that_passes_its_crc_but_does_not_decode(self, tmp_path, payload):
        path = tmp_path / "snap.bin"
        path.write_bytes(zlib.crc32(payload).to_bytes(4, "big") + payload)
        with pytest.raises(StorageError, match="does not decode") as raised:
            FileCheckpointStore(path).load()
        assert not isinstance(raised.value, CodecError)
        assert isinstance(raised.value.__cause__, CodecError)

    def test_a_foreign_record_is_refused(self, tmp_path):
        path = tmp_path / "snap.bin"
        payload = encode([1, 2])
        path.write_bytes(zlib.crc32(payload).to_bytes(4, "big") + payload)
        with pytest.raises(StorageError, match="foreign record"):
            FileCheckpointStore(path).load()
