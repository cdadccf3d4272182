"""Tests for the in-memory command log."""

from __future__ import annotations

import pytest

from repro.core.messages import CommitRecord, PrepareRecord
from repro.errors import StorageError
from repro.storage.log import packed_record
from repro.storage.memory_log import InMemoryLog
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

    def test_mixed_records_replay_in_append_order(self):
        records = [_prepare(i) for i in range(10)] + [CommitRecord(Timestamp(10, 0))]
        log = InMemoryLog()
        for record in records:
            log.append(record)
        assert list(log.records()) == records

    def test_append_after_rewrite_continues_the_new_contents(self):
        log = InMemoryLog([_prepare(i) for i in range(5)])
        log.rewrite([_prepare(7)])
        assert log.append(_prepare(8)) == 1
        assert [r.ts.micros for r in log.records()] == [70, 80]

    def test_rewrite_leaves_nothing_unsynced(self):
        log = InMemoryLog()
        log.append_all([_prepare(0), _prepare(1)])
        assert log.unsynced_count == 2
        log.rewrite([_prepare(5)])
        assert log.unsynced_count == 0

    def test_initial_records_count_as_synced(self):
        log = InMemoryLog([_prepare(i) for i in range(3)])
        assert log.unsynced_count == 0
        assert log.fsync_count == 0

    def test_every_sync_is_counted(self):
        # A durability barrier costs the same whether or not anything is new.
        log = InMemoryLog()
        log.append(_prepare(1))
        log.sync()
        log.sync()
        assert log.fsync_count == 2
        assert log.unsynced_count == 0

    def test_records_iterates_the_log_as_it_was(self):
        log = InMemoryLog([_prepare(0), _prepare(1)])
        replay = log.records()
        log.append(_prepare(2))
        assert [r.ts.micros for r in replay] == [0, 10]

    def test_snapshot_is_a_copy(self):
        log = InMemoryLog([_prepare(0)])
        snapshot = log.snapshot()
        snapshot.append(_prepare(1))
        assert len(log) == 1
        assert log.snapshot() == [_prepare(0)]

    def test_remove_if_without_a_match_keeps_the_log(self):
        log = InMemoryLog([_prepare(i) for i in range(3)])
        log.append(_prepare(3))
        assert log.remove_if(lambda r: r.ts.micros > 1_000) == 0
        assert [r.ts.micros for r in log.records()] == [0, 10, 20, 30]
        # No rewrite happened: the unsynced append is still unsynced.
        assert log.unsynced_count == 1

    def test_tail_longer_than_the_log_returns_everything(self):
        log = InMemoryLog([_prepare(i) for i in range(3)])
        assert [r.ts.micros for r in log.tail(10)] == [0, 10, 20]
        assert log.tail(-1) == []

    def test_a_replica_handed_the_log_replays_the_same_records(self):
        # How the simulator models a crash that keeps stable storage intact.
        log = InMemoryLog([_prepare(0), CommitRecord(Timestamp(0, 0)), _prepare(1)])
        recovered = InMemoryLog(log.records())
        assert recovered.snapshot() == log.snapshot()


class TestPackedLayouts:
    def test_a_rewrite_with_an_unpackable_record_keeps_the_old_contents(self):
        log = InMemoryLog([_prepare(0)])
        with pytest.raises(StorageError, match="no packed log layout"):
            log.rewrite([_prepare(1), ("prepare", 0, 0)])
        assert log.snapshot() == [_prepare(0)]

    def test_a_taken_tag_is_refused(self):
        with pytest.raises(StorageError, match="already taken"):

            @packed_record("prepare")
            class Impostor:
                pass
