"""Tests for the slot ledger shared by the Paxos/Mencius baselines."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.protocols.slots import SlotLedger
from repro.types import Command, CommandId


def _cmd(i: int) -> Command:
    return Command(CommandId("c", i), b"")


def _decide(ledger: SlotLedger, slot: int) -> None:
    ledger.get(slot).decided = True


class TestSlotLedger:
    def test_record_command_and_acks(self):
        ledger = SlotLedger(range(3))
        state = ledger.record_command(3, _cmd(3))
        assert state.command == _cmd(3)
        assert ledger.add_ack(3, 0) == 1
        assert ledger.add_ack(3, 0) == 1  # duplicates ignored
        assert ledger.add_ack(3, 1) == 2

    def test_an_ack_from_outside_the_replica_set_counts_for_nothing(self):
        ledger = SlotLedger(range(3))
        assert ledger.add_ack(3, 0) == 1
        assert ledger.add_ack(3, 7) == 1
        assert ledger.add_ack(3, 1) == 2
        assert ledger.peek(3).acks == {0, 1}

    def test_record_command_keeps_first_value(self):
        ledger = SlotLedger(range(3))
        ledger.record_command(0, _cmd(1))
        ledger.record_command(0, _cmd(2))
        assert ledger.peek(0).command == _cmd(1)

    def test_execution_in_slot_order_with_gaps(self):
        ledger = SlotLedger(range(3))
        for slot in (0, 1, 2):
            ledger.record_command(slot, _cmd(slot))
        _decide(ledger, 1)
        _decide(ledger, 2)
        assert list(ledger.pop_executable()) == []  # slot 0 not decided yet
        _decide(ledger, 0)
        executed = [s.slot for s in ledger.pop_executable()]
        assert executed == [0, 1, 2]
        assert ledger.execute_frontier == 3

    def test_skipped_slots_execute_as_noops(self):
        ledger = SlotLedger(range(3))
        ledger.mark_skipped(0)
        ledger.record_command(1, _cmd(1))
        _decide(ledger, 1)
        executed = list(ledger.pop_executable())
        assert [s.slot for s in executed] == [0, 1]
        assert executed[0].skipped is True

    def test_implicit_skip_callback(self):
        ledger = SlotLedger(range(3))
        ledger.record_command(2, _cmd(2))
        _decide(ledger, 2)
        executed = [s.slot for s in ledger.pop_executable(lambda slot: slot < 2)]
        assert executed == [2]
        assert ledger.execute_frontier == 3
        # Implicitly skipped slots are passed like executed ones: forgotten.
        assert ledger.peek(0) is None and ledger.peek(1) is None
        assert ledger.get(0).decided and ledger.get(1).decided

    def test_decided_slot_without_command_blocks_execution(self):
        ledger = SlotLedger(range(3))
        _decide(ledger, 0)  # e.g. a Phase2b arrived before the Phase2a
        assert list(ledger.pop_executable()) == []
        ledger.record_command(0, _cmd(0))
        assert [s.slot for s in ledger.pop_executable()] == [0]

    def test_slots_never_execute_twice(self):
        ledger = SlotLedger(range(3))
        ledger.record_command(0, _cmd(0))
        _decide(ledger, 0)
        assert [s.slot for s in ledger.pop_executable()] == [0]
        assert list(ledger.pop_executable()) == []

    def test_slots_known_out_of_order_stay_undecided(self):
        ledger = SlotLedger(range(3))
        ledger.record_command(4, _cmd(4))
        ledger.record_command(1, _cmd(1))
        assert sorted(ledger._slots) == [1, 4]
        assert not any(state.decided for state in ledger._slots.values())

    def test_executed_slots_are_forgotten(self):
        ledger = SlotLedger(range(3))
        for slot in range(4):
            ledger.record_command(slot, _cmd(slot))
            ledger.add_ack(slot, 0)
            _decide(ledger, slot)
        ledger.record_command(5, _cmd(5))
        assert [s.slot for s in ledger.pop_executable()] == [0, 1, 2, 3]
        assert ledger.peek(5) is not None
        assert len(ledger._slots) == 1

    def test_a_message_below_the_frontier_does_not_recreate_its_slot(self):
        ledger = SlotLedger(range(3))
        ledger.record_command(0, _cmd(0))
        _decide(ledger, 0)
        list(ledger.pop_executable())
        # A late ack, a repeated accept, a repeated decision, a skip.
        ledger.add_ack(0, 2)
        state = ledger.record_command(0, _cmd(9))
        assert state.decided
        assert ledger.get(0).decided
        _decide(ledger, 0)
        ledger.mark_skipped(0)
        assert not ledger._slots
        assert ledger.get(0).decided
        assert list(ledger.pop_executable()) == []

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=30, unique=True))
    def test_execution_order_is_always_contiguous_prefix(self, decided_slots):
        ledger = SlotLedger(range(3))
        for slot in decided_slots:
            ledger.record_command(slot, _cmd(slot))
            _decide(ledger, slot)
        executed = [s.slot for s in ledger.pop_executable()]
        # Execution covers exactly the contiguous prefix 0..k of decided slots.
        expected = []
        i = 0
        while i in set(decided_slots):
            expected.append(i)
            i += 1
        assert executed == expected
