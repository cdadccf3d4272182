"""Tests for the in-memory command log."""

from __future__ import annotations

import pytest

from repro.core.messages import CommitRecord, PrepareRecord
from repro.errors import StorageError
from repro.storage.log import packed_record
from repro.storage.memory_log import InMemoryLog
from repro.types import Command, CommandId, Timestamp

from tests.helpers import log_of


def _prepare(i: int) -> PrepareRecord:
    return PrepareRecord(Command(CommandId("c", i), bytes([i % 256])), Timestamp(i * 10, 0))


class TestInMemoryLog:
    def test_append_and_replay_order(self):
        log = InMemoryLog()
        for i in range(5):
            assert log.append(_prepare(i)) == i
        assert [r.ts.micros for r in log.records()] == [0, 10, 20, 30, 40]
        assert len(log) == 5

    def test_remove_if(self):
        log = log_of(_prepare(i) for i in range(6))
        removed = log.remove_if(lambda r: r.ts.micros >= 30)
        assert removed == 3
        assert len(log) == 3

    def test_mixed_records_replay_in_append_order(self):
        records = [_prepare(i) for i in range(10)] + [CommitRecord(Timestamp(10, 0))]
        log = InMemoryLog()
        for record in records:
            log.append(record)
        assert list(log.records()) == records

    def test_append_after_remove_if_continues_the_new_contents(self):
        log = log_of(_prepare(i) for i in range(5))
        log.remove_if(lambda r: r.ts.micros != 30)
        assert log.append(_prepare(8)) == 1
        assert [r.ts.micros for r in log.records()] == [30, 80]

    def test_records_iterates_the_log_as_it_was(self):
        log = log_of([_prepare(0), _prepare(1)])
        replay = log.records()
        log.append(_prepare(2))
        assert [r.ts.micros for r in replay] == [0, 10]

    def test_remove_if_without_a_match_keeps_the_log(self):
        log = log_of(_prepare(i) for i in range(4))
        assert log.remove_if(lambda r: r.ts.micros > 1_000) == 0
        assert [r.ts.micros for r in log.records()] == [0, 10, 20, 30]

    def test_an_empty_log_replays_nothing(self):
        log = InMemoryLog()
        assert len(log) == 0
        assert list(log.records()) == []
        assert log.remove_if(lambda r: True) == 0

    def test_remove_if_hands_the_predicate_the_records_as_appended(self):
        records = [_prepare(0), CommitRecord(Timestamp(0, 0)), _prepare(1)]
        seen = []
        log_of(records).remove_if(lambda r: seen.append(r) or False)
        assert seen == records

    def test_a_raising_predicate_leaves_the_log_unchanged(self):
        log = log_of(_prepare(i) for i in range(4))

        def predicate(record):
            if record.ts.micros == 20:
                raise RuntimeError("predicate failed")
            return True

        with pytest.raises(RuntimeError):
            log.remove_if(predicate)
        assert [r.ts.micros for r in log.records()] == [0, 10, 20, 30]

    def test_append_may_be_wrapped_per_instance(self):
        # The benchmark's tracer wraps one replica's ``log.append`` in place.
        log, other = InMemoryLog(), InMemoryLog()
        appended = []
        inner = log.append

        def traced(record):
            appended.append(record)
            return inner(record)

        log.append = traced
        assert log.append(_prepare(0)) == 0
        assert other.append(_prepare(1)) == 0
        assert appended == [_prepare(0)]
        assert list(log.records()) == [_prepare(0)]

    def test_a_replica_handed_the_log_replays_the_same_records(self):
        # How the simulator models a crash that keeps stable storage intact.
        log = log_of([_prepare(0), CommitRecord(Timestamp(0, 0)), _prepare(1)])
        recovered = log_of(log.records())
        assert list(recovered.records()) == list(log.records())


class TestPackedLayouts:
    def test_an_unpackable_append_keeps_the_old_contents(self):
        log = log_of([_prepare(0)])
        with pytest.raises(StorageError, match="no packed log layout"):
            log.append(("prepare", 0, 0))
        assert list(log.records()) == [_prepare(0)]
        assert log.append(_prepare(1)) == 1

    def test_a_taken_tag_is_refused(self):
        with pytest.raises(StorageError, match="already taken"):

            @packed_record("prepare")
            class Impostor:
                pass
