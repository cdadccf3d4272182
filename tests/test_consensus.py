"""Tests for the single-decree Paxos consensus substrate."""

from __future__ import annotations

import pytest

from repro.consensus.single_paxos import (
    ConsensusDecision,
    InstanceManager,
    Outgoing,
    PaxosInstance,
    PaxosLearn,
    PaxosP1a,
    PaxosP1b,
    PaxosP2a,
    PaxosP2b,
)


def deliver_all(instances: dict[int, PaxosInstance], outgoing: list[tuple[int, Outgoing]]):
    """Synchronously deliver consensus messages until quiescence.

    ``outgoing`` holds (sender, Outgoing) pairs; broadcast messages go to
    every instance.  Returns the set of decisions observed.
    """
    decisions = {}
    queue = list(outgoing)
    while queue:
        sender, out = queue.pop(0)
        targets = list(instances) if out.dst is None else [out.dst]
        for target in targets:
            more, decision = instances[target].on_message(sender, out.message)
            queue.extend((target, m) for m in more)
            if decision is not None:
                decisions[target] = decision.value
    return decisions


def make_instances(n: int = 3, instance: int = 0) -> dict[int, PaxosInstance]:
    return {rid: PaxosInstance(instance, rid, n) for rid in range(n)}


class TestSinglePaxos:
    def test_single_proposer_decides_its_value(self):
        instances = make_instances(3)
        outgoing = [(0, out) for out in instances[0].propose("value-A")]
        decisions = deliver_all(instances, outgoing)
        assert set(decisions.values()) == {"value-A"}
        assert set(decisions) == {0, 1, 2}

    def test_replica_zero_skips_phase_one(self):
        instances = make_instances(3)
        outgoing = instances[0].propose("fast")
        assert len(outgoing) == 1
        assert isinstance(outgoing[0].message, PaxosP2a)

    def test_other_proposers_run_phase_one(self):
        instances = make_instances(3)
        outgoing = instances[1].propose("slow")
        assert isinstance(outgoing[0].message, PaxosP1a)

    def test_competing_proposers_agree_on_one_value(self):
        instances = make_instances(5)
        outgoing = [(0, out) for out in instances[0].propose("zero")]
        outgoing += [(3, out) for out in instances[3].propose("three")]
        decisions = deliver_all(instances, outgoing)
        assert len(set(decisions.values())) == 1
        assert set(decisions.values()) <= {"zero", "three"}

    def test_acceptor_rejects_smaller_ballots(self):
        acceptor = PaxosInstance(0, 1, 3)
        out, _ = acceptor.on_message(2, PaxosP1a(0, 5))
        assert isinstance(out[0].message, PaxosP1b)
        out, _ = acceptor.on_message(0, PaxosP1a(0, 3))
        assert out == []  # smaller ballot is ignored
        out, _ = acceptor.on_message(0, PaxosP2a(0, 3, "stale"))
        assert out == []

    def test_phase1b_adopts_previously_accepted_value(self):
        proposer = PaxosInstance(0, 1, 3)
        proposer.propose("mine")
        ballot = 1  # a proposer's ballot is its replica id
        # Two phase-1b replies; one reports an already accepted value.
        out, _ = proposer.on_message(0, PaxosP1b(0, ballot, accepted_ballot=-1, accepted_value=None))
        assert out == []
        out, _ = proposer.on_message(2, PaxosP1b(0, ballot, accepted_ballot=0, accepted_value="theirs"))
        p2a = [o for o in out if isinstance(o.message, PaxosP2a)]
        assert len(p2a) == 1
        assert p2a[0].message.value == "theirs"

    def test_a_proposer_ballot_is_its_replica_id(self):
        messages = [PaxosInstance(0, r, 5).propose("v")[0].message for r in range(5)]
        # Replica 0 holds the smallest ballot and goes straight to phase 2.
        assert isinstance(messages[0], PaxosP2a)
        assert all(isinstance(m, PaxosP1a) for m in messages[1:])
        assert [m.ballot for m in messages] == [0, 1, 2, 3, 4]

    def test_learn_decides_directly(self):
        learner = PaxosInstance(0, 4, 5)
        _, decision = learner.on_message(0, PaxosLearn(0, "decided"))
        assert decision == ConsensusDecision(0, "decided")
        assert learner.decided and learner.decided_value == "decided"

    def test_decided_instance_ignores_new_proposals(self):
        instance = PaxosInstance(0, 0, 3)
        instance.on_message(1, PaxosLearn(0, "done"))
        assert instance.propose("other") == []


class TestInstanceManager:
    def test_instances_are_independent(self):
        managers = {rid: InstanceManager(rid, 3) for rid in range(3)}
        # Run instance 1 and instance 2 with different proposers/values.
        def run(instance_number: int, proposer: int, value):
            queue = [(proposer, out) for out in managers[proposer].propose(instance_number, value)]
            decisions = {}
            while queue:
                sender, out = queue.pop(0)
                targets = list(managers) if out.dst is None else [out.dst]
                for target in targets:
                    more, decision = managers[target].on_message(sender, out.message)
                    queue.extend((target, m) for m in more)
                    if decision is not None:
                        decisions[target] = decision.value
            return decisions

        first = run(1, 0, "epoch-1")
        second = run(2, 1, "epoch-2")
        assert set(first.values()) == {"epoch-1"}
        assert set(second.values()) == {"epoch-2"}
        assert managers[2].instance(1).decided_value == "epoch-1"
        assert managers[2].instance(2).decided_value == "epoch-2"
        assert not managers[2].instance(3).decided

    def test_non_consensus_messages_are_ignored(self):
        manager = InstanceManager(0, 3)
        assert manager.on_message(1, "not-a-paxos-message") == ([], None)
