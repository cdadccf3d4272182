"""Unit tests for the Multi-Paxos and Paxos-bcast baselines."""

from __future__ import annotations

import pytest

from tests.helpers import ManualClock
from repro.config import ClusterSpec, ProtocolConfig
from repro.protocols.base import Broadcast, ClientReply, Send
from repro.protocols.multipaxos import CommitSlot, Forward, MultiPaxosReplica, Phase2a, Phase2b
from repro.protocols.paxos_bcast import PaxosBcastReplica
from repro.statemachine import AppendLogStateMachine
from repro.storage.memory_log import InMemoryLog
from repro.types import Command, CommandId


def build(cls, replica_id: int, n: int = 3, leader: int = 0):
    spec = ClusterSpec.from_sites([f"dc{i}" for i in range(n)])
    return cls(
        replica_id,
        spec,
        clock=ManualClock(0),
        log=InMemoryLog(),
        state_machine=AppendLogStateMachine(),
        config=ProtocolConfig(leader=leader),
    )


def cmd(seq: int) -> Command:
    return Command(CommandId("client", seq), bytes([seq % 250]))


def only(actions, kind):
    return [a for a in actions if isinstance(a, kind)]


class TestMultiPaxosLeader:
    def test_leader_assigns_slots_sequentially(self):
        leader = build(MultiPaxosReplica, 0)
        a1 = leader.on_client_request(cmd(1))
        a2 = leader.on_client_request(cmd(2))
        p1 = only(a1, Broadcast)[0].message
        p2 = only(a2, Broadcast)[0].message
        assert isinstance(p1, Phase2a) and isinstance(p2, Phase2a)
        assert (p1.slot, p2.slot) == (0, 1)
        assert only(a1, Broadcast)[0].include_self is False

    def test_leader_commits_after_majority_of_2b(self):
        leader = build(MultiPaxosReplica, 0)
        leader.on_client_request(cmd(1))
        actions = leader.on_message(1, Phase2b(0))
        # Leader + replica 1 is a majority of three: commit, notify, execute.
        commits = [a for a in only(actions, Broadcast) if isinstance(a.message, CommitSlot)]
        assert len(commits) == 1
        assert leader.executed_count == 1
        assert len(only(actions, ClientReply)) == 1

    def test_leader_ignores_duplicate_2b(self):
        leader = build(MultiPaxosReplica, 0)
        leader.on_client_request(cmd(1))
        leader.on_message(1, Phase2b(0))
        before = leader.executed_count
        assert leader.on_message(1, Phase2b(0)) == []
        assert leader.executed_count == before

    def test_a_2b_from_outside_the_replica_set_does_not_make_a_majority(self):
        leader = build(MultiPaxosReplica, 0)
        leader.on_client_request(cmd(1))
        assert leader.on_message(7, Phase2b(0)) == []
        assert leader.executed_count == 0
        leader.on_message(1, Phase2b(0))
        assert leader.executed_count == 1

    def test_invalid_leader_configuration_rejected(self):
        with pytest.raises(ValueError):
            build(MultiPaxosReplica, 0, n=3, leader=9)


class TestMultiPaxosNonLeader:
    def test_non_leader_forwards_to_leader(self):
        follower = build(MultiPaxosReplica, 1)
        actions = follower.on_client_request(cmd(1))
        sends = only(actions, Send)
        assert len(sends) == 1
        assert sends[0].dst == 0
        assert isinstance(sends[0].message, Forward)

    def test_acceptor_logs_and_replies_to_leader_only(self):
        follower = build(MultiPaxosReplica, 1)
        actions = follower.on_message(0, Phase2a(0, cmd(1)))
        sends = only(actions, Send)
        assert len(sends) == 1 and sends[0].dst == 0
        assert isinstance(sends[0].message, Phase2b)
        assert only(actions, Broadcast) == []
        assert len(follower.log) == 1

    def test_non_leader_does_not_learn_from_quorum_counting(self):
        follower = build(MultiPaxosReplica, 1)
        follower.on_message(0, Phase2a(0, cmd(1)))
        follower.on_message(2, Phase2b(0))
        # Classic Paxos: only the commit notification reveals the outcome.
        assert follower.executed_count == 0
        follower.on_message(0, CommitSlot(0))
        assert follower.executed_count == 1

    def test_forward_received_by_leader_is_proposed(self):
        leader = build(MultiPaxosReplica, 0)
        actions = leader.on_message(1, Forward(cmd(5)))
        assert isinstance(only(actions, Broadcast)[0].message, Phase2a)

    def test_forward_received_by_non_leader_is_relayed(self):
        follower = build(MultiPaxosReplica, 2)
        actions = follower.on_message(1, Forward(cmd(5)))
        sends = only(actions, Send)
        assert sends and sends[0].dst == 0

    def test_origin_replies_to_its_client_after_commit(self):
        follower = build(MultiPaxosReplica, 1)
        follower.on_client_request(cmd(7))
        follower.on_message(0, Phase2a(0, cmd(7)))
        actions = follower.on_message(0, CommitSlot(0))
        replies = only(actions, ClientReply)
        assert len(replies) == 1
        assert replies[0].command_id == CommandId("client", 7)

    def test_execution_in_slot_order_even_with_out_of_order_commits(self):
        follower = build(MultiPaxosReplica, 1)
        follower.on_message(0, Phase2a(0, cmd(1)))
        follower.on_message(0, Phase2a(1, cmd(2)))
        follower.on_message(0, CommitSlot(1))
        assert follower.executed_count == 0
        follower.on_message(0, CommitSlot(0))
        assert follower.executed_count == 2
        assert follower.execution_order == [CommandId("client", 1), CommandId("client", 2)]


class TestPaxosBcast:
    def test_acceptor_broadcasts_2b(self):
        follower = build(PaxosBcastReplica, 1)
        actions = follower.on_message(0, Phase2a(0, cmd(1)))
        broadcasts = only(actions, Broadcast)
        assert len(broadcasts) == 1
        assert isinstance(broadcasts[0].message, Phase2b)
        assert broadcasts[0].include_self is False

    def test_every_replica_learns_locally_from_2b_quorum(self):
        # Five replicas: origin is 1, leader is 0.
        origin = build(PaxosBcastReplica, 1, n=5)
        origin.on_client_request(cmd(1))
        origin.on_message(0, Phase2a(0, cmd(1)))
        # After the Phase2a the origin knows itself and the leader accepted.
        assert origin.executed_count == 0
        actions = origin.on_message(2, Phase2b(0))
        # Third acceptor completes the majority: committed without the leader.
        assert origin.executed_count == 1
        assert len(only(actions, ClientReply)) == 1

    def test_no_commit_notifications_are_sent(self):
        leader = build(PaxosBcastReplica, 0)
        leader.on_client_request(cmd(1))
        actions = leader.on_message(1, Phase2b(0))
        assert [a for a in only(actions, Broadcast) if isinstance(a.message, CommitSlot)] == []
        assert leader.executed_count == 1

    def test_2b_before_2a_does_not_execute_early(self):
        follower = build(PaxosBcastReplica, 3, n=5)
        follower.on_message(1, Phase2b(0))
        follower.on_message(2, Phase2b(0))
        follower.on_message(4, Phase2b(0))
        assert follower.executed_count == 0
        follower.on_message(0, Phase2a(0, cmd(1)))
        assert follower.executed_count == 1

    def test_protocol_names(self):
        assert build(MultiPaxosReplica, 0).protocol_name == "paxos"
        assert build(PaxosBcastReplica, 0).protocol_name == "paxos-bcast"
