"""Integration tests for Clock-RSM reconfiguration and recovery (Alg. 3)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.failures import FailureSchedule
from repro.types import seconds_to_micros

from tests.helpers import make_cluster, sim_command, submit_at


def submit_series(cluster, count, start, spacing=15_000, origins=None):
    """Schedule *count* commands, cycling over *origins* (default: all)."""
    origins = list(origins if origins is not None else cluster.spec.replica_ids)
    commands = []
    for i in range(count):
        origin = origins[i % len(origins)]
        command = sim_command(cluster, f"cmd-{start}-{i}".encode(), client=f"client-{origin}")
        submit_at(cluster, start + i * spacing, origin, command)
        commands.append(command)
    return commands


class TestReconfiguration:
    def test_crash_blocks_clock_rsm_until_reconfiguration(self):
        """Without reconfiguration a crashed replica stalls commits; removing
        it from the configuration restores progress (the paper's motivation
        for Algorithm 3)."""
        cluster = make_cluster("clock-rsm", sites=("CA", "VA", "IR"), seed=21)
        cluster.start()
        submit_series(cluster, 3, start=5_000)
        cluster.run_for(seconds_to_micros(1.0))
        assert len(cluster.replies) == 3

        # Crash IR.  New commands cannot commit: the stable-order condition
        # needs IR's clock promise, which will never arrive.
        cluster.crash(2)
        submit_series(cluster, 2, start=cluster.now + 5_000, origins=[0, 1])
        cluster.run_for(seconds_to_micros(1.0))
        assert len(cluster.replies) == 3

        # Replica 0 reconfigures the system to {CA, VA}.
        schedule = FailureSchedule().reconfigure(cluster.now + 10_000, initiator=0, new_config=(0, 1))
        schedule.install(cluster)
        cluster.run_for(seconds_to_micros(1.0))
        assert cluster.replica(0).epoch == 1
        assert cluster.replica(1).epoch == 1
        assert cluster.replica(0).active_config == (0, 1)

        # The parked/new commands now commit with only two replicas.
        submit_series(cluster, 3, start=cluster.now + 5_000, origins=[0, 1])
        cluster.run_for(seconds_to_micros(1.5))
        assert len(cluster.replies) >= 6
        cluster.assert_consistent_order()

    def test_commands_committed_before_the_cut_survive_reconfiguration(self):
        cluster = make_cluster("clock-rsm", sites=("CA", "VA", "IR"), seed=22)
        cluster.start()
        first = submit_series(cluster, 4, start=5_000)
        cluster.run_for(seconds_to_micros(1.0))
        assert len(cluster.replies) == 4
        history_before = tuple(cluster.replica(0).state_machine.history)

        cluster.crash(2)
        FailureSchedule().reconfigure(cluster.now + 5_000, 0, (0, 1)).install(cluster)
        cluster.run_for(seconds_to_micros(1.0))

        for rid in (0, 1):
            replica = cluster.replica(rid)
            assert tuple(replica.state_machine.history)[: len(history_before)] == history_before
            assert replica.executed_count >= 4

    def test_recovered_replica_rejoins_and_catches_up(self):
        cluster = make_cluster("clock-rsm", sites=("CA", "VA", "IR"), seed=23)
        cluster.start()
        submit_series(cluster, 3, start=5_000)
        cluster.run_for(seconds_to_micros(1.0))
        executed_before_crash = cluster.replica(2).executed_count

        # IR crashes; the others reconfigure it out and keep committing.
        cluster.crash(2)
        FailureSchedule().reconfigure(cluster.now + 10_000, 0, (0, 1)).install(cluster)
        cluster.run_for(seconds_to_micros(0.5))
        submit_series(cluster, 4, start=cluster.now + 5_000, origins=[0, 1])
        cluster.run_for(seconds_to_micros(1.0))
        committed_without_ir = cluster.replica(0).executed_count
        assert committed_without_ir >= executed_before_crash + 4

        # IR recovers from its log and asks to rejoin via reconfiguration.
        FailureSchedule().recover(cluster.now + 10_000, 2, rejoin=True).install(cluster)
        cluster.run_for(seconds_to_micros(2.0))
        recovered = cluster.replica(2)
        assert recovered.epoch >= 2
        assert 2 in recovered.active_config
        # State transfer brought it up to date with everything it missed.
        assert recovered.executed_count >= committed_without_ir
        cluster.assert_consistent_order()

        # And the rejoined cluster keeps making progress with all three.
        submit_series(cluster, 3, start=cluster.now + 5_000)
        cluster.run_for(seconds_to_micros(1.5))
        cluster.assert_consistent_order()
        assert cluster.replica(2).executed_count > committed_without_ir

    def test_five_replica_minority_failure(self):
        cluster = make_cluster("clock-rsm", sites=("CA", "VA", "IR", "JP", "SG"), seed=24)
        cluster.start()
        submit_series(cluster, 5, start=5_000)
        cluster.run_for(seconds_to_micros(1.5))
        assert len(cluster.replies) == 5

        cluster.crash(3)
        cluster.crash(4)
        FailureSchedule().reconfigure(cluster.now + 10_000, 0, (0, 1, 2)).install(cluster)
        cluster.run_for(seconds_to_micros(1.5))
        assert cluster.replica(0).active_config == (0, 1, 2)

        submit_series(cluster, 5, start=cluster.now + 5_000, origins=[0, 1, 2])
        cluster.run_for(seconds_to_micros(2.0))
        assert len(cluster.replies) >= 10
        cluster.assert_consistent_order()

    def test_reconfigure_rejects_minority_configurations(self):
        cluster = make_cluster("clock-rsm", sites=("CA", "VA", "IR", "JP", "SG"), seed=25)
        cluster.start()
        replica = cluster.replica(0)
        with pytest.raises(ConfigurationError):
            replica.reconfig.trigger((0, 1))
        with pytest.raises(ConfigurationError):
            replica.reconfig.trigger((0, 1, 9))
        # One replica named three times is not a majority of five.
        with pytest.raises(ConfigurationError):
            replica.reconfig.trigger((0, 0, 0))

    def test_a_repeated_replica_is_named_once_in_the_new_configuration(self):
        cluster = make_cluster("clock-rsm", sites=("CA", "VA", "IR", "JP", "SG"), seed=27)
        cluster.start()
        cluster.crash(3)
        cluster.crash(4)
        FailureSchedule().reconfigure(10_000, 0, (2, 0, 1, 1)).install(cluster)
        cluster.run_for(seconds_to_micros(1.5))
        assert cluster.replica(0).active_config == (0, 1, 2)
        assert cluster.replica(2).active_config == (0, 1, 2)

    def test_reconfiguration_requires_clock_rsm(self):
        cluster = make_cluster("paxos", sites=("CA", "VA", "IR"), seed=26)
        cluster.start()
        schedule = FailureSchedule().reconfigure(1_000, 0, (0, 1))
        with pytest.raises(ValueError):
            schedule.install(cluster)
            cluster.run_for(10_000)
