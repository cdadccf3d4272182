"""Step-by-step unit tests of the Clock-RSM replica (Algorithm 1 + 2)."""

from __future__ import annotations

import logging

from tests.helpers import ManualClock
from repro.config import ClusterSpec, ProtocolConfig
from repro.consensus.single_paxos import PaxosP1a, PaxosP1b
from repro.core.messages import (
    ClockTime,
    CommitRecord,
    Prepare,
    PrepareOk,
    PrepareRecord,
    RetrieveCmds,
    RetrieveReply,
    Suspend,
    SuspendOk,
)
from repro.core.protocol import ClockRsmReplica
from repro.core.reconfig import EpochHint
from repro.protocols.base import Broadcast, ClientReply, Send, SetTimer
from repro.statemachine import AppendLogStateMachine
from repro.storage.memory_log import InMemoryLog
from repro.types import Command, CommandId, Timestamp


def build_replica(
    replica_id: int = 0,
    sites=("CA", "VA", "IR"),
    clock_start: int = 1_000,
    **config_kwargs,
) -> tuple[ClockRsmReplica, ManualClock, InMemoryLog]:
    spec = ClusterSpec.from_sites(list(sites))
    clock = ManualClock(clock_start)
    log = InMemoryLog()
    replica = ClockRsmReplica(
        replica_id,
        spec,
        clock=clock,
        log=log,
        state_machine=AppendLogStateMachine(),
        config=ProtocolConfig(**config_kwargs),
    )
    return replica, clock, log


def command(seq: int = 1, payload: bytes = b"value") -> Command:
    return Command(CommandId("client", seq), payload)


def only(actions, kind):
    """All actions of the given type."""
    return [a for a in actions if isinstance(a, kind)]


class TestClientRequest:
    def test_request_broadcasts_prepare_with_clock_timestamp(self):
        replica, clock, _ = build_replica(replica_id=1, clock_start=500)
        actions = replica.on_client_request(command())
        broadcasts = only(actions, Broadcast)
        assert len(broadcasts) == 1
        prepare = broadcasts[0].message
        assert isinstance(prepare, Prepare)
        assert prepare.ts.replica == 1
        assert prepare.ts.micros >= 500
        assert broadcasts[0].include_self is True

    def test_successive_requests_have_strictly_increasing_timestamps(self):
        replica, _, _ = build_replica()
        ts = []
        for seq in range(5):
            actions = replica.on_client_request(command(seq))
            ts.append(only(actions, Broadcast)[0].message.ts)
        assert ts == sorted(ts)
        assert len(set(ts)) == 5

    def test_requests_parked_while_suspended(self):
        replica, _, _ = build_replica()
        replica.freeze()
        assert replica.on_client_request(command()) == []
        resumed = replica.resume()
        assert len(only(resumed, Broadcast)) == 1


class TestPrepareHandling:
    def test_prepare_is_logged_and_acknowledged_to_all(self):
        replica, clock, log = build_replica(replica_id=1, clock_start=10_000)
        prepare = Prepare(command(), Timestamp(5_000, 0))
        actions = replica.on_message(0, prepare)
        # Logged before acknowledging.
        assert isinstance(next(log.records()), PrepareRecord)
        oks = [a for a in only(actions, Broadcast) if isinstance(a.message, PrepareOk)]
        assert len(oks) == 1
        assert oks[0].message.ts == Timestamp(5_000, 0)
        # The acknowledgement carries a clock reading above the command's.
        assert oks[0].message.clock_micros > 5_000
        # LatestTV records the origin's timestamp.
        assert replica.state.latest_tv[0] == 5_000

    def test_prepare_ahead_of_clock_waits_before_acknowledging(self):
        replica, clock, _ = build_replica(replica_id=1, clock_start=1_000)
        prepare = Prepare(command(), Timestamp(3_000, 0))
        actions = replica.on_message(0, prepare)
        # No PREPAREOK yet: the replica must wait until its clock passes ts.
        assert not [a for a in only(actions, Broadcast) if isinstance(a.message, PrepareOk)]
        timers = only(actions, SetTimer)
        assert len(timers) == 1
        assert timers[0].delay == 3_000 - 1_000 + 1
        # Once the clock has advanced past the timestamp the ack goes out.
        clock.advance(5_000)
        fired = replica.on_timer(timers[0].timer)
        oks = [a for a in only(fired, Broadcast) if isinstance(a.message, PrepareOk)]
        assert len(oks) == 1
        assert oks[0].message.clock_micros > 3_000

    def test_prepare_ahead_of_clock_with_wait_disabled_bumps_forward(self):
        replica, _, _ = build_replica(replica_id=1, clock_start=1_000, wait_for_clock=False)
        actions = replica.on_message(0, Prepare(command(), Timestamp(3_000, 0)))
        oks = [a for a in only(actions, Broadcast) if isinstance(a.message, PrepareOk)]
        assert len(oks) == 1
        assert oks[0].message.clock_micros > 3_000

    def test_prepare_dropped_while_suspended(self):
        replica, _, log = build_replica(replica_id=1, clock_start=10_000)
        replica.freeze()
        actions = replica.on_message(0, Prepare(command(), Timestamp(5_000, 0)))
        assert actions == []
        assert len(log) == 0

    def test_stale_epoch_message_dropped(self):
        # Each normal-case message from an older and from a newer epoch is
        # dropped before it touches anything: no action, no log entry, no
        # LatestTV movement, no ack.
        replica, _, log = build_replica(replica_id=1, clock_start=10_000)
        replica.epoch = 2
        ts = Timestamp(5_000, 0)
        for epoch in (1, 3):
            for message in (
                Prepare(command(), ts, epoch=epoch),
                PrepareOk(ts, 7_000, epoch=epoch),
                ClockTime(8_000, epoch=epoch),
            ):
                assert replica.on_message(0, message) == [], message
        assert len(log) == 0
        assert replica.state.min_pending() is None
        assert replica.state.latest_tv == {0: 0, 1: 0, 2: 0}
        assert replica.state.ack_count(ts) == 0
        # The same three in the replica's own epoch do reach it.
        replica.on_message(0, Prepare(command(), ts, epoch=2))
        replica.on_message(0, PrepareOk(ts, 7_000, epoch=2))
        replica.on_message(2, ClockTime(8_000, epoch=2))
        assert len(log) == 1 and replica.state.has_pending(ts)
        assert replica.state.latest_tv == {0: 7_000, 1: 0, 2: 8_000}
        assert replica.state.ack_count(ts) == 1

    def test_reconfiguration_messages_reach_the_manager(self):
        replica, _, _ = build_replica(replica_id=1, clock_start=10_000)
        cut = Timestamp(0, -1)
        retrieve = replica.on_message(0, RetrieveCmds(cut, Timestamp(9_000, 0)))
        suspend = replica.on_message(0, Suspend(1, cut))
        suspend_ok = replica.on_message(0, SuspendOk(1, ()))
        reply = replica.on_message(0, RetrieveReply((), cut, Timestamp(9_000, 0)))
        assert [(a.dst, type(a.message)) for a in retrieve] == [(0, RetrieveReply)]
        assert [(a.dst, type(a.message)) for a in suspend] == [(0, SuspendOk)]
        assert replica.suspended
        # Nothing was collected or decided here: both are ignored.
        assert suspend_ok == reply == []

    def test_a_stale_epoch_hint_is_dropped(self, caplog):
        replica, _, log = build_replica(replica_id=1, clock_start=10_000)
        replica.epoch = 2
        with caplog.at_level(logging.DEBUG, logger="repro.core.protocol"):
            # A hint at or below the replica's epoch tells it nothing.
            assert replica.on_message(0, EpochHint(1)) == []
            assert replica.on_message(0, EpochHint(2)) == []
            assert replica.reconfig._epoch_floor < 2
            # A newer one raises the floor the next reconfiguration it starts
            # must clear; with none of its own to retry, it sends nothing.
            assert replica.on_message(0, EpochHint(5)) == []
            assert replica.reconfig._epoch_floor == 5
        assert "unknown message" not in caplog.text
        assert len(log) == 0 and not replica.suspended and replica.epoch == 2

    def test_consensus_messages_reach_the_manager_when_enabled(self):
        replica, _, _ = build_replica(replica_id=1, clock_start=10_000)
        promises = replica.on_message(0, PaxosP1a(1, 3))
        assert [(a.dst, type(a.message)) for a in promises] == [(0, PaxosP1b)]

    def test_unknown_message_logs_a_warning(self, caplog):
        replica, _, log = build_replica(replica_id=1, clock_start=10_000)
        with caplog.at_level(logging.WARNING, logger="repro.core.protocol"):
            assert replica.on_message(2, "not a protocol message") == []
        assert caplog.records[-1].levelno == logging.WARNING
        assert "unknown message 'not a protocol message' from r2" in caplog.text
        assert len(log) == 0


class TestCommitRule:
    def _deliver_prepare_everywhere(self, replicas, prepare):
        """Deliver a PREPARE to every replica and return their PREPAREOKs."""
        oks = {}
        for replica in replicas.values():
            actions = replica.on_message(prepare.ts.replica, prepare)
            ok = [a.message for a in actions if isinstance(a, Broadcast) and isinstance(a.message, PrepareOk)]
            if ok:
                oks[replica.replica_id] = ok[0]
        return oks

    def test_command_commits_after_majority_and_stable_order(self):
        replicas = {}
        clocks = {}
        spec_sites = ("CA", "VA", "IR")
        for rid in range(3):
            replica, clock, _ = build_replica(
                replica_id=rid, sites=spec_sites, clock_start=1_000, wait_for_clock=False
            )
            replicas[rid], clocks[rid] = replica, clock

        origin = replicas[0]
        request_actions = origin.on_client_request(command())
        prepare = only(request_actions, Broadcast)[0].message

        oks = self._deliver_prepare_everywhere(replicas, prepare)
        assert set(oks) == {0, 1, 2}

        # Deliver replica 1's PREPAREOK to the origin: majority (0 and 1) have
        # logged the command but replica 2's clock promise is still missing.
        origin.on_message(1, oks[1])
        assert origin.executed_count == 0
        # Replica 2's acknowledgement provides both the third log copy and the
        # final stable-order promise, so the command commits and executes.
        actions = origin.on_message(2, oks[2])
        assert origin.executed_count == 1
        replies = only(actions, ClientReply)
        assert len(replies) == 1
        assert replies[0].command_id == CommandId("client", 1)

    def test_ack_arriving_after_the_commit_is_observed_but_not_recorded(self):
        replicas = {rid: build_replica(replica_id=rid, wait_for_clock=False)[0] for rid in range(3)}
        origin = replicas[0]
        prepare = only(origin.on_client_request(command()), Broadcast)[0].message
        oks = self._deliver_prepare_everywhere(replicas, prepare)
        origin.on_message(1, oks[1])
        origin.on_message(2, oks[2])
        assert origin.executed_count == 1 and origin.state.min_pending() is None
        # The origin's own loopback PREPAREOK is the last to arrive: its clock
        # reading still counts, but it must not re-create the ack set the
        # commit just freed (nothing would ever free it again).
        assert origin.on_message(0, oks[0]) == []
        assert origin.state.latest_tv[0] == oks[0].clock_micros
        assert origin.state.ack_count(prepare.ts) == 0
        assert origin.state._acks == {}

    def test_an_ack_from_outside_the_configuration_does_not_make_a_majority(self):
        # Over TCP the sender of a message is what its frame header says; a
        # PREPAREOK "from" replica 7 of a 3-replica cluster is no log copy.
        replicas = {rid: build_replica(replica_id=rid, wait_for_clock=False)[0] for rid in range(3)}
        origin = replicas[0]
        prepare = only(origin.on_client_request(command()), Broadcast)[0].message
        oks = self._deliver_prepare_everywhere(replicas, prepare)
        origin.on_message(0, oks[0])  # its own copy: one ack
        origin.on_message(7, PrepareOk(prepare.ts, oks[1].clock_micros))
        assert origin.state.ack_count(prepare.ts) == 1
        later = prepare.ts.micros + 1_000
        for rid in (1, 2):  # every replica's clock is past the command: stable
            origin.on_message(rid, ClockTime(later))
        assert origin.executed_count == 0
        # The copy of a replica in the configuration completes the majority.
        actions = origin.on_message(1, oks[1])
        assert origin.executed_count == 1
        assert [reply.command_id for reply in only(actions, ClientReply)] == [CommandId("client", 1)]

    def test_non_origin_replicas_execute_but_do_not_reply(self):
        replicas = {rid: build_replica(replica_id=rid, wait_for_clock=False)[0] for rid in range(3)}
        origin = replicas[0]
        prepare = only(origin.on_client_request(command()), Broadcast)[0].message
        oks = self._deliver_prepare_everywhere(replicas, prepare)
        follower = replicas[1]
        actions = []
        # Deliver every PREPAREOK, including the follower's own loopback copy
        # (broadcasts in Clock-RSM include the sender itself).
        for rid, ok in oks.items():
            actions += follower.on_message(rid, ok)
        assert follower.executed_count == 1
        assert only(actions, ClientReply) == []

    def test_commit_record_appended_after_prepare_record(self):
        replicas = {rid: build_replica(replica_id=rid, wait_for_clock=False)[0] for rid in range(3)}
        origin = replicas[0]
        prepare = only(origin.on_client_request(command()), Broadcast)[0].message
        oks = self._deliver_prepare_everywhere(replicas, prepare)
        for rid, ok in oks.items():
            origin.on_message(rid, ok)
        records = list(origin.log.records())
        assert isinstance(records[0], PrepareRecord)
        assert isinstance(records[-1], CommitRecord)
        assert records[-1].ts == prepare.ts
        assert origin.last_committed_ts == prepare.ts

    def test_commands_execute_in_timestamp_order_across_origins(self):
        replicas = {rid: build_replica(replica_id=rid, wait_for_clock=False)[0] for rid in range(3)}
        # Two commands from different origins; replica 2's has a larger ts.
        prepare_a = only(replicas[1].on_client_request(command(1)), Broadcast)[0].message
        prepare_b = only(replicas[2].on_client_request(command(2)), Broadcast)[0].message
        observer = replicas[0]
        # Deliver the larger-timestamp command first.
        ordered = sorted([prepare_a, prepare_b], key=lambda p: p.ts, reverse=True)
        all_oks = []
        for prepare in ordered:
            for replica in replicas.values():
                actions = replica.on_message(prepare.ts.replica, prepare)
                all_oks.extend(
                    (replica.replica_id, a.message)
                    for a in actions
                    if isinstance(a, Broadcast) and isinstance(a.message, PrepareOk)
                )
        for sender, ok in all_oks:
            observer.on_message(sender, ok)
        assert observer.executed_count == 2
        assert observer.execution_order == [
            p.command.command_id for p in sorted([prepare_a, prepare_b], key=lambda p: p.ts)
        ]


class TestClockTimeExtension:
    def test_start_arms_clocktime_timer(self):
        replica, _, _ = build_replica()
        timers = only(replica.start(), SetTimer)
        assert len(timers) == 1
        assert timers[0].timer.kind == "clocktime"
        assert timers[0].delay == replica.config.clocktime_interval

    def test_idle_replica_broadcasts_clock_time(self):
        replica, clock, _ = build_replica(clock_start=100_000)
        timer = only(replica.start(), SetTimer)[0].timer
        clock.advance(10_000)
        actions = replica.on_timer(timer)
        clock_times = [a for a in only(actions, Broadcast) if isinstance(a.message, ClockTime)]
        assert len(clock_times) == 1
        # The timer re-arms itself.
        assert len(only(actions, SetTimer)) == 1

    def test_recently_active_replica_does_not_broadcast(self):
        replica, clock, _ = build_replica(clock_start=100_000)
        timer = only(replica.start(), SetTimer)[0].timer
        # Sending a PREPARE updates LatestTV[self] via the loopback delivery.
        prepare = only(replica.on_client_request(command()), Broadcast)[0].message
        replica.on_message(replica.replica_id, prepare)
        actions = replica.on_timer(timer)
        clock_times = [a for a in only(actions, Broadcast) if isinstance(a.message, ClockTime)]
        assert clock_times == []

    def test_clock_time_message_updates_latest_tv(self):
        replica, _, _ = build_replica(replica_id=0)
        replica.on_message(2, ClockTime(55_555))
        assert replica.state.latest_tv[2] == 55_555


class TestRecovery:
    def test_replica_recovers_executed_commands_from_log(self):
        replicas = {rid: build_replica(replica_id=rid, wait_for_clock=False)[0] for rid in range(3)}
        origin = replicas[0]
        prepare = only(origin.on_client_request(command()), Broadcast)[0].message
        for replica in replicas.values():
            actions = replica.on_message(0, prepare)
            for action in actions:
                if isinstance(action, Broadcast) and isinstance(action.message, PrepareOk):
                    origin.on_message(replica.replica_id, action.message)
        assert origin.executed_count == 1

        # Restart a replica from the same log.
        spec = ClusterSpec.from_sites(["CA", "VA", "IR"])
        recovered = ClockRsmReplica(
            0,
            spec,
            clock=ManualClock(10_000_000),
            log=origin.log,
            state_machine=AppendLogStateMachine(),
            config=ProtocolConfig(),
            recover=True,
        )
        assert recovered.executed_count == 1
        assert recovered.last_committed_ts == prepare.ts
        # It never re-issues a timestamp at or below anything in its log.
        assert recovered.ts_source.next().micros > prepare.ts.micros
