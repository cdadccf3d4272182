"""Unit and property tests for the Clock-RSM soft state and commit rule."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.state import ClockRsmState, CommitStatus, PendingCommand
from repro.types import Command, CommandId, Timestamp


def _pending(micros: int, replica: int, seq: int = 1) -> PendingCommand:
    command = Command(CommandId(f"client-{replica}", seq), b"x")
    return PendingCommand(command, Timestamp(micros, replica), replica)


def _state(n: int = 3) -> ClockRsmState:
    return ClockRsmState(active_config=range(n), quorum_size=n // 2 + 1)


class TestPendingBookkeeping:
    def test_min_pending_follows_timestamp_order(self):
        state = _state()
        state.add_pending(_pending(300, 1))
        state.add_pending(_pending(100, 2))
        state.add_pending(_pending(200, 0))
        assert state.min_pending().ts == Timestamp(100, 2)
        state.remove_pending(Timestamp(100, 2))
        assert state.min_pending().ts == Timestamp(200, 0)
        assert len(state._pending) == 2

    def test_duplicate_add_is_idempotent(self):
        state = _state()
        state.add_pending(_pending(100, 0))
        state.add_pending(_pending(100, 0))
        assert len(state._pending) == 1

    def test_drop_pending_above(self):
        state = _state()
        for micros in (10, 20, 30, 40):
            state.add_pending(_pending(micros, 0, seq=micros))
        dropped = state.drop_pending_above(Timestamp(20, 0))
        assert sorted(p.ts.micros for p in dropped) == [30, 40]
        assert len(state._pending) == 2

    def test_remove_unknown_returns_none(self):
        assert _state().remove_pending(Timestamp(1, 0)) is None


class TestAcks:
    def test_ack_counting_deduplicates_replicas(self):
        state = _state()
        ts = Timestamp(10, 0)
        assert state.record_ack(ts, 0) == 1
        assert state.record_ack(ts, 1) == 2
        assert state.record_ack(ts, 1) == 2  # duplicate PREPAREOK
        assert state.ack_count(ts) == 2
        assert state._acks[(ts.micros, ts.replica)] == {0, 1}

    def test_an_ack_from_outside_the_configuration_counts_for_nothing(self):
        state = _state()
        ts = Timestamp(10, 0)
        assert state.record_ack(ts, 0) == 1
        assert state.record_ack(ts, 7) == 1
        assert state.record_ack(ts, -1) == 1
        assert state._acks[(ts.micros, ts.replica)] == {0}

    def test_acks_may_arrive_before_prepare(self):
        state = _state()
        ts = Timestamp(10, 1)
        state.record_ack(ts, 2)
        state.add_pending(_pending(10, 1))
        assert state.ack_count(ts) == 1


class TestLatestTv:
    def test_observe_clock_keeps_maximum(self):
        state = _state()
        state.observe_clock(1, 100)
        state.observe_clock(1, 50)
        assert state.latest_tv[1] == 100

    def test_observe_unknown_replica_is_ignored(self):
        state = _state()
        state.observe_clock(99, 100)
        assert 99 not in state.latest_tv

    def test_min_latest_and_stability(self):
        state = _state()
        state.observe_clock(0, 100)
        state.observe_clock(1, 150)
        assert state.min_latest() == 0  # replica 2 has not been heard from
        state.observe_clock(2, 120)
        assert state.min_latest() == 100
        assert state.stable_up_to(Timestamp(100, 0))
        assert not state.stable_up_to(Timestamp(101, 0))

    def test_resize_config_preserves_known_entries(self):
        state = _state()
        state.observe_clock(1, 500)
        state.resize_config([0, 1])
        assert state.latest_tv == {0: 0, 1: 500}
        state.resize_config([0, 1, 2])
        assert state.latest_tv[2] == 0


class TestCommitRule:
    def test_all_three_conditions_required(self):
        state = _state(3)
        ts = Timestamp(100, 0)
        state.add_pending(_pending(100, 0))
        # No acks yet, nothing stable.
        assert state.commit_status(ts) == CommitStatus.AWAITING_MAJORITY
        state.record_ack(ts, 0)
        state.record_ack(ts, 1)
        # Majority reached but stable order not yet satisfied.
        assert state.commit_status(ts) == CommitStatus.AWAITING_STABLE_ORDER
        for replica in range(3):
            state.observe_clock(replica, 150)
        assert state.commit_status(ts) == CommitStatus.COMMITTABLE
        assert state.next_committable().ts == ts

    def test_prefix_condition_blocks_later_commands(self):
        state = _state(3)
        early, late = Timestamp(50, 1), Timestamp(100, 0)
        state.add_pending(_pending(50, 1))
        state.add_pending(_pending(100, 0))
        for replica in range(3):
            state.observe_clock(replica, 200)
        state.record_ack(late, 0)
        state.record_ack(late, 1)
        state.record_ack(late, 2)
        # The later command has every ack but the earlier one is still pending.
        assert state.commit_status(late) == CommitStatus.AWAITING_PREFIX
        assert state.next_committable() is None
        state.record_ack(early, 0)
        state.record_ack(early, 1)
        assert state.next_committable().ts == early

    def test_unknown_command_status(self):
        assert _state().commit_status(Timestamp(1, 0)) == CommitStatus.UNKNOWN_COMMAND

    def test_stable_order_requires_every_replica(self):
        state = _state(5)
        ts = Timestamp(100, 0)
        state.add_pending(_pending(100, 0))
        for replica in range(5):
            state.record_ack(ts, replica)
        # Four of five replicas have sent something newer; the fifth has not.
        for replica in range(4):
            state.observe_clock(replica, 200)
        assert state.commit_status(ts) == CommitStatus.AWAITING_STABLE_ORDER
        state.observe_clock(4, 100)
        assert state.commit_status(ts) == CommitStatus.COMMITTABLE

    def test_a_fresh_state_has_nothing_pending_and_a_majority_quorum(self):
        state = _state()
        assert not state._pending
        assert state.quorum_size == 2


class TestCommitRuleProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=500),   # micros
                st.integers(min_value=0, max_value=4),     # origin replica
            ),
            min_size=1,
            max_size=30,
            unique=True,
        ),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_next_committable_is_always_the_minimum_pending(self, commands, seed):
        """Whatever the ack/clock state, only the smallest pending command commits."""
        import random

        rng = random.Random(seed)
        state = ClockRsmState(active_config=range(5), quorum_size=3)
        for index, (micros, origin) in enumerate(commands):
            state.add_pending(
                PendingCommand(Command(CommandId("c", index), b""), Timestamp(micros, origin), origin)
            )
            for replica in rng.sample(range(5), rng.randint(0, 5)):
                state.record_ack(Timestamp(micros, origin), replica)
        for replica in range(5):
            state.observe_clock(replica, rng.randint(0, 600))
        candidate = state.next_committable()
        if candidate is not None:
            minimum = state.min_pending()
            assert candidate.ts == minimum.ts
            assert state.ack_count(candidate.ts) >= 3
            assert candidate.ts.micros <= state.min_latest()
