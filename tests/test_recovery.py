"""Tests for Clock-RSM log replay (Section V-B recovery)."""

from __future__ import annotations

import pytest

from repro.core.messages import CommitRecord, PrepareRecord
from repro.core.recovery import replay_log
from repro.errors import LogCorruptionError
from repro.protocols.records import DecideRecord
from repro.storage.memory_log import InMemoryLog
from repro.types import Command, CommandId, Timestamp, ZERO_TS


def prepare(micros: int, replica: int = 0, seq: int | None = None) -> PrepareRecord:
    seq = micros if seq is None else seq
    return PrepareRecord(Command(CommandId("c", seq), b"p"), Timestamp(micros, replica))


class TestReplayLog:
    def test_empty_log(self):
        recovered = replay_log(InMemoryLog())
        assert recovered.executed == ()
        assert recovered.orphans == ()
        assert recovered.last_committed_ts == ZERO_TS
        assert recovered.highest_ts == ZERO_TS

    def test_committed_commands_are_returned_in_timestamp_order(self):
        log = InMemoryLog()
        # PREPARE entries may appear out of timestamp order; COMMIT marks are
        # in timestamp order (the protocol appends them that way).
        log.append(prepare(20))
        log.append(prepare(10))
        log.append(CommitRecord(Timestamp(10, 0)))
        log.append(CommitRecord(Timestamp(20, 0)))
        recovered = replay_log(log)
        assert [r.ts.micros for r in recovered.executed] == [10, 20]
        assert recovered.last_committed_ts == Timestamp(20, 0)
        assert recovered.orphans == ()

    def test_orphan_prepares_are_reported_sorted(self):
        log = InMemoryLog()
        log.append(prepare(10))
        log.append(CommitRecord(Timestamp(10, 0)))
        log.append(prepare(40))
        log.append(prepare(30))
        recovered = replay_log(log)
        assert [r.ts.micros for r in recovered.executed] == [10]
        assert [r.ts.micros for r in recovered.orphans] == [30, 40]
        assert recovered.highest_ts == Timestamp(40, 0)

    def test_commit_without_prepare_is_corruption(self):
        log = InMemoryLog()
        log.append(CommitRecord(Timestamp(10, 0)))
        with pytest.raises(LogCorruptionError):
            replay_log(log)

    def test_out_of_order_commits_are_corruption(self):
        log = InMemoryLog()
        log.append(prepare(10))
        log.append(prepare(20))
        log.append(CommitRecord(Timestamp(20, 0)))
        log.append(CommitRecord(Timestamp(10, 0)))
        with pytest.raises(LogCorruptionError):
            replay_log(log)

    def test_foreign_record_is_corruption(self):
        log = InMemoryLog()
        log.append(DecideRecord(3))  # a slot protocol's record
        with pytest.raises(LogCorruptionError):
            replay_log(log)

    def test_duplicate_prepare_entries_are_tolerated(self):
        # Reconfiguration may re-append a PREPARE that already exists.
        log = InMemoryLog()
        log.append(prepare(10))
        log.append(prepare(10))
        log.append(CommitRecord(Timestamp(10, 0)))
        recovered = replay_log(log)
        assert [r.ts.micros for r in recovered.executed] == [10]
        # The second copy remains an orphan only if it was never committed;
        # identical timestamps collapse onto one entry, so no orphans here.
        assert recovered.orphans == ()
