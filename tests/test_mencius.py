"""Unit tests for the Mencius and Mencius-bcast baselines."""

from __future__ import annotations

import pytest

from tests.helpers import ManualClock
from repro.config import ClusterSpec, ProtocolConfig
from repro.protocols.base import Broadcast, ClientReply, Send
from repro.protocols.mencius import (
    MenciusAck,
    MenciusCommit,
    MenciusReplica,
    SkipAnnounce,
    Suggest,
)
from repro.protocols.mencius_bcast import MenciusBcastReplica
from repro.statemachine import AppendLogStateMachine
from repro.storage.memory_log import InMemoryLog
from repro.types import Command, CommandId


def build(cls, replica_id: int, n: int = 3):
    spec = ClusterSpec.from_sites([f"dc{i}" for i in range(n)])
    return cls(
        replica_id,
        spec,
        clock=ManualClock(0),
        log=InMemoryLog(),
        state_machine=AppendLogStateMachine(),
        config=ProtocolConfig(),
    )


def cmd(seq: int) -> Command:
    return Command(CommandId("client", seq), b"v")


def only(actions, kind):
    return [a for a in actions if isinstance(a, kind)]


class TestSlotOwnership:
    def test_round_robin_ownership(self):
        replica = build(MenciusReplica, 1, n=3)
        assert replica.owner_of(0) == 0
        assert replica.owner_of(1) == 1
        assert replica.owner_of(2) == 2
        assert replica.owner_of(4) == 1

    def test_replica_uses_its_own_slots_in_order(self):
        replica = build(MenciusReplica, 1, n=3)
        s1 = only(replica.on_client_request(cmd(1)), Broadcast)[0].message
        s2 = only(replica.on_client_request(cmd(2)), Broadcast)[0].message
        assert isinstance(s1, Suggest) and isinstance(s2, Suggest)
        assert (s1.slot, s2.slot) == (1, 4)
        assert s2.skip_until == 7


class TestSkipping:
    def test_receiver_skips_its_earlier_slots(self):
        # Replica 0 owns slot 0; a suggest for slot 4 forces it to skip 0 and 3.
        replica = build(MenciusReplica, 0, n=3)
        actions = replica.on_message(1, Suggest(4, cmd(1), 7))
        assert replica.next_own_slot == 6
        ack = only(actions, Send)[0].message
        assert isinstance(ack, MenciusAck)
        assert ack.skip_until == 6
        # Classic Mencius additionally announces fresh skips to everyone.
        announces = [a for a in only(actions, Broadcast) if isinstance(a.message, SkipAnnounce)]
        assert len(announces) == 1

    def test_bcast_variant_piggybacks_skips_on_broadcast_acks(self):
        replica = build(MenciusBcastReplica, 0, n=3)
        actions = replica.on_message(1, Suggest(4, cmd(1), 7))
        acks = [a for a in only(actions, Broadcast) if isinstance(a.message, MenciusAck)]
        assert len(acks) == 1
        assert acks[0].message.skip_until == 6
        assert [a for a in only(actions, Broadcast) if isinstance(a.message, SkipAnnounce)] == []

    def test_no_skip_needed_when_suggest_is_later_than_own_frontier(self):
        replica = build(MenciusReplica, 2, n=3)
        replica.on_client_request(cmd(1))  # uses slot 2, frontier moves to 5
        actions = replica.on_message(0, Suggest(3, cmd(2), 6))
        assert replica.next_own_slot == 5
        announces = [a for a in only(actions, Broadcast) if isinstance(a.message, SkipAnnounce)]
        assert announces == []

    def test_skip_knowledge_from_suggest_messages(self):
        replica = build(MenciusReplica, 2, n=3)
        replica.on_message(1, Suggest(7, cmd(1), 10))
        assert replica.skip_until[1] == 10


class TestCommitAndExecution:
    def test_coordinator_commits_with_majority_and_known_skips(self):
        origin = build(MenciusBcastReplica, 0, n=3)
        suggest = only(origin.on_client_request(cmd(1)), Broadcast)[0].message
        assert suggest.slot == 0
        # One ack completes the majority (origin counts itself).
        actions = origin.on_message(1, MenciusAck(0, 3))
        assert origin.executed_count == 1
        assert len(only(actions, ClientReply)) == 1

    def test_execution_blocked_until_earlier_slots_are_resolved(self):
        # Replica 1's command lands in slot 1; slot 0 belongs to replica 0 and
        # is unresolved until replica 0's skip promise is known.
        origin = build(MenciusBcastReplica, 1, n=3)
        origin.on_client_request(cmd(1))
        origin.on_message(2, MenciusAck(1, 5))
        assert origin.executed_count == 0  # slot 0 might still be used
        origin.on_message(0, MenciusAck(1, 3))  # replica 0 skipped past slot 0
        assert origin.executed_count == 1

    def test_delayed_commit_by_concurrent_earlier_command(self):
        # The paper's delayed-commit problem: replica 1's command in slot 1
        # cannot execute until replica 0's concurrent command in slot 0 does.
        origin = build(MenciusBcastReplica, 1, n=3)
        origin.on_client_request(cmd(1))
        origin.on_message(2, MenciusAck(1, 5))
        # Slot 1 has a majority, but the concurrent command occupying slot 0
        # has not arrived yet, so slot 1's commit is delayed (by up to one
        # one-way delay in the paper's analysis).
        assert origin.executed_count == 0
        # Replica 0 did not skip: its own command arrives for slot 0.  The
        # local copy plus the coordinator's form a majority, so both slots
        # now execute in order.
        origin.on_message(0, Suggest(0, cmd(2), 3))
        assert origin.executed_count == 2
        assert origin.execution_order[0] == CommandId("client", 2)
        assert origin.execution_order[1] == CommandId("client", 1)

    def test_classic_mencius_needs_commit_notification(self):
        follower = build(MenciusReplica, 2, n=3)
        follower.on_message(0, Suggest(0, cmd(1), 3))
        assert follower.executed_count == 0
        follower.on_message(1, MenciusAck(0, 4))  # acks are not for us to count
        assert follower.executed_count == 0
        follower.on_message(0, MenciusCommit(0))
        assert follower.executed_count == 1

    def test_classic_mencius_coordinator_broadcasts_commit(self):
        origin = build(MenciusReplica, 0, n=3)
        origin.on_client_request(cmd(1))
        actions = origin.on_message(1, MenciusAck(0, 4))
        commits = [a for a in only(actions, Broadcast) if isinstance(a.message, MenciusCommit)]
        assert len(commits) == 1
        assert origin.executed_count == 1

    def test_five_replica_quorum(self):
        origin = build(MenciusBcastReplica, 0, n=5)
        origin.on_client_request(cmd(1))
        origin.on_message(1, MenciusAck(0, 6))
        assert origin.executed_count == 0  # only 2 of 5 so far
        origin.on_message(2, MenciusAck(0, 7))
        assert origin.executed_count == 1

    def test_protocol_names(self):
        assert build(MenciusReplica, 0).protocol_name == "mencius"
        assert build(MenciusBcastReplica, 0).protocol_name == "mencius-bcast"
