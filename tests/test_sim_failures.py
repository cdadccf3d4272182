"""Tests for scripted fault injection on simulated clusters."""

from __future__ import annotations

import pytest

from repro.sim.failures import (
    CrashEvent,
    FailureSchedule,
    PartitionEvent,
    ReconfigureEvent,
    RecoverEvent,
)
from repro.sim.node import CpuModel
from repro.types import seconds_to_micros

from tests.helpers import make_cluster, sim_command, submit_at


class TestFailureSchedule:
    def test_builder_accumulates_events(self):
        schedule = (
            FailureSchedule()
            .crash(1_000, 2)
            .recover(5_000, 2, rejoin=True)
            .partition(2_000, 0, 1, heal_at=3_000)
            .reconfigure(4_000, 0, (0, 1))
        )
        kinds = [type(e) for e in schedule.events]
        assert kinds == [CrashEvent, RecoverEvent, PartitionEvent, ReconfigureEvent]

    def test_scheduled_crash_takes_effect_at_the_right_time(self):
        cluster = make_cluster("paxos-bcast", leader=0, seed=31)
        FailureSchedule().crash(100_000, 2).install(cluster)
        submit_at(cluster, 10_000, 0, sim_command(cluster, b"before", client="c"))
        cluster.run_for(90_000)
        assert not cluster.nodes[2].crashed
        cluster.run_for(20_000)
        assert cluster.nodes[2].crashed

    def test_partition_heals_automatically(self):
        cluster = make_cluster("paxos-bcast", leader=0, seed=32)
        FailureSchedule().partition(10_000, 0, 1, heal_at=200_000).install(cluster)
        cluster.run_for(50_000)
        assert cluster.network._partitions == {frozenset((0, 1))}
        cluster.run_for(200_000)
        assert cluster.network._partitions == set()

    def test_crash_then_recover_preserves_the_log(self):
        cluster = make_cluster("clock-rsm", seed=33)
        cluster.start()
        submit_at(cluster, 5_000, 0, sim_command(cluster, b"durable", client="c0"))
        cluster.run_for(seconds_to_micros(1.0))
        executed_before = cluster.replica(1).executed_count
        assert executed_before == 1

        cluster.crash(1)
        assert cluster.nodes[1].crashed
        recovered = cluster.recover(1)
        assert not cluster.nodes[1].crashed
        # The recovered replica replayed its log into a fresh state machine.
        assert recovered.executed_count == executed_before
        assert recovered.state_machine.history == [b"durable"]

    def test_partitioned_majority_still_commits_for_paxos(self):
        cluster = make_cluster("paxos-bcast", leader=0, seed=34)
        cluster.start()
        cluster.partition(0, 2)
        cluster.partition(1, 2)  # replica 2 is fully isolated
        submit_at(cluster, 10_000, 0, sim_command(cluster, b"majority", client="c"))
        cluster.run_for(seconds_to_micros(1.0))
        assert len(cluster.replies) == 1
        assert cluster.replica(2).executed_count == 0
        # The partition parked replica 2's traffic; healing delivers it.
        cluster.heal(0, 2)
        cluster.heal(1, 2)
        cluster.run_for(seconds_to_micros(1.0))
        assert cluster.replica(2).executed_count == 1


class TestRecoveredReplicaStartsClean:
    """A crashed node's timers and CPU backlog die with it: the replica
    recovered in its place gets neither (as on the asyncio backend, whose
    driver cancels a stopped replica's timers)."""

    @staticmethod
    def _count_clocktime_timers(replica):
        fired = []
        inner = replica.on_timer

        def counting(timer):
            if timer.kind == "clocktime":
                fired.append(timer)
            return inner(timer)

        replica.on_timer = counting
        return fired

    def test_a_short_crash_does_not_add_a_timer_chain(self):
        cluster = make_cluster("clock-rsm", seed=34)
        cluster.run_for(100_000)
        for _ in range(3):
            # Shorter than the CLOCKTIME interval: the old replica's timer is
            # still armed when its successor starts and arms its own.
            cluster.crash(0)
            cluster.run_for(1_000)
            cluster.recover(0)
            cluster.run_for(50_000)
        fired = {rid: self._count_clocktime_timers(cluster.replica(rid)) for rid in range(3)}
        cluster.run_for(seconds_to_micros(1.0))
        interval = cluster.replica(0).config.clocktime_interval
        expected = seconds_to_micros(1.0) // interval
        for rid, timers in fired.items():
            assert expected - 1 <= len(timers) <= expected + 1, (rid, len(timers))

    def test_the_cpu_backlog_of_a_crashed_node_is_not_inherited(self):
        cluster = make_cluster(
            "clock-rsm", seed=35, uniform_one_way=200, cpu_model=CpuModel(client_fixed=2_000)
        )
        for index in range(200):
            # 200 requests x 2 ms of client CPU: node 0 is busy until ~410 ms.
            submit_at(cluster, 10_000, 0, sim_command(cluster, b"x", client=f"c{index}"))
        cluster.run_for(11_000)
        cluster.crash(0)
        cluster.run_for(5_000)
        recovered = cluster.recover(0)
        calls = []
        inner = recovered.on_client_request

        def timed(unit):
            calls.append(cluster.env.now)
            return inner(unit)

        recovered.on_client_request = timed
        submitted_at = cluster.env.now
        cluster.submit(0, sim_command(cluster, b"after", client="late"))
        cluster.run_for(seconds_to_micros(1.0))
        # The successor's CPU is idle: its first input runs at once, not
        # after the ~394 ms of work its predecessor lost.
        assert calls == [submitted_at]
        assert any(reply.command_id.client == "late" for reply in cluster.replies)
