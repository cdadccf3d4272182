"""End-to-end simulation tests: every protocol replicates consistently."""

from __future__ import annotations

import pytest

from repro.experiment.sim_backend import SimBackend
from repro.experiment.spec import ExperimentSpec, FaultSpec, WorkloadSpec
from repro.kvstore.client import SimKVClient
from repro.types import seconds_to_micros

from tests.helpers import make_cluster, sim_command, submit_at


class TestTotalOrderAndAgreement:
    def test_concurrent_commands_from_all_replicas_execute_identically(self, any_protocol):
        cluster = make_cluster(any_protocol, sites=("CA", "VA", "IR"), leader=1, seed=11)
        cluster.start()
        # Each replica submits several commands at staggered, overlapping times.
        for round_index in range(6):
            for replica_id in cluster.spec.replica_ids:
                payload = f"r{replica_id}-round{round_index}".encode()
                command = sim_command(cluster, payload, client=f"client-{replica_id}")
                submit_at(cluster, 1_000 * round_index + replica_id * 137, replica_id, command)
        cluster.run_for(seconds_to_micros(4.0))
        # Every command committed at its origin...
        assert len(cluster.replies) == 18
        # ...every replica executed all of them...
        for replica in cluster.replicas():
            assert replica.executed_count == 18
        # ...in exactly the same order, and with identical state machines.
        cluster.assert_consistent_order()
        histories = [tuple(r.state_machine.history) for r in cluster.replicas()]
        assert len(set(histories)) == 1

    def test_five_replicas_with_ec2_latencies(self, any_protocol):
        cluster = make_cluster(
            any_protocol, sites=("CA", "VA", "IR", "JP", "SG"), leader=0, seed=5
        )
        cluster.start()
        for i in range(10):
            origin = i % 5
            command = sim_command(cluster, bytes([i]), client=f"c{origin}")
            submit_at(cluster, i * 20_000, origin, command)
        cluster.run_for(seconds_to_micros(5.0))
        assert len(cluster.replies) == 10
        cluster.assert_consistent_order()

    def test_command_outputs_are_returned_to_the_right_client(self, any_protocol):
        cluster = make_cluster(any_protocol, use_kv=True, leader=0, seed=3)
        client_ca = SimKVClient(cluster, replica_id=0)
        client_ir = SimKVClient(cluster, replica_id=2)
        assert client_ca.put("shared", b"from-ca") is None
        assert client_ir.put("shared", b"from-ir") == b"from-ca"
        assert client_ca.get("shared") == b"from-ir"
        assert client_ir.delete("shared") is True
        assert client_ca.get("shared") is None

    def test_replies_only_come_from_the_origin_replica(self, any_protocol):
        cluster = make_cluster(any_protocol, leader=0, seed=7)
        cluster.start()
        cluster.submit(1, sim_command(cluster, b"hello", client="only-client"))
        cluster.run_for(seconds_to_micros(2.0))
        assert len(cluster.replies) == 1
        assert cluster.replies[0].replica_id == 1


class TestDeterminism:
    def test_same_seed_gives_identical_results(self):
        def run(seed):
            cluster = make_cluster("clock-rsm", sites=("CA", "VA", "IR", "JP", "SG"), seed=seed)
            cluster.start()
            for i in range(12):
                command = sim_command(cluster, bytes([i]), client=f"c{i % 5}")
                submit_at(cluster, i * 11_000, i % 5, command)
            cluster.run_for(seconds_to_micros(3.0))
            return [(e.command_id, e.time) for e in cluster.replies]

        assert run(42) == run(42)
        # A different seed changes jitter-free runs only through workload
        # randomness; here submissions are fixed, so results still match.
        assert [c for c, _ in run(42)] == [c for c, _ in run(43)]


class TestClockSkew:
    @pytest.mark.parametrize("skews", [{0: 20_000}, {1: -15_000, 3: 30_000}])
    def test_clock_rsm_is_correct_under_clock_skew(self, skews):
        cluster = make_cluster(
            "clock-rsm",
            sites=("CA", "VA", "IR", "JP", "SG"),
            seed=9,
            clock_offsets=skews,
        )
        cluster.start()
        for i in range(15):
            command = sim_command(cluster, bytes([i]), client=f"c{i % 5}")
            submit_at(cluster, i * 9_000, i % 5, command)
        cluster.run_for(seconds_to_micros(5.0))
        assert len(cluster.replies) == 15
        cluster.assert_consistent_order()

    def test_skewed_clock_adds_wait_but_not_incorrectness(self):
        # A replica whose clock runs far ahead forces others to wait before
        # acknowledging its commands (Algorithm 1 line 8), which adds latency
        # but must not break the total order.
        ahead = {0: 200_000}  # 200 ms ahead
        cluster = make_cluster("clock-rsm", sites=("CA", "VA", "IR"), seed=2, clock_offsets=ahead)
        cluster.start()
        submit_at(cluster, 1_000, 0, sim_command(cluster, b"skewed", client="c0"))
        submit_at(cluster, 2_000, 1, sim_command(cluster, b"normal", client="c1"))
        cluster.run_for(seconds_to_micros(3.0))
        assert len(cluster.replies) == 2
        cluster.assert_consistent_order()


class TestCrashTolerance:
    def test_minority_crash_does_not_block_majority_protocols(self, any_protocol):
        if any_protocol == "clock-rsm":
            pytest.skip("Clock-RSM needs reconfiguration to make progress; covered separately")
        if any_protocol in ("mencius", "mencius-bcast"):
            pytest.skip("Mencius needs its revocation protocol (out of scope) after a crash")
        # Paxos variants: crash of a non-leader minority replica.
        cluster = make_cluster(any_protocol, sites=("CA", "VA", "IR"), leader=0, seed=4)
        cluster.start()
        cluster.crash(2)
        submit_at(cluster, 10_000, 0, sim_command(cluster, b"after-crash", client="c0"))
        cluster.run_for(seconds_to_micros(2.0))
        assert len(cluster.replies) == 1

    def test_crashed_replica_does_not_execute(self):
        cluster = make_cluster("paxos-bcast", leader=0, seed=4)
        cluster.start()
        cluster.crash(2)
        submit_at(cluster, 10_000, 0, sim_command(cluster, b"x", client="c0"))
        cluster.run_for(seconds_to_micros(2.0))
        assert cluster.replica(2).executed_count == 0
        assert cluster.replica(1).executed_count == 1


class TestSoftStateStaysBounded:
    """Clock-RSM's ack bookkeeping must not outlive the commands it is about."""

    CLIENTS_PER_SITE = 8

    @pytest.mark.parametrize("rejoin", [False, True], ids=["steady", "rejoin"])
    def test_ack_sets_are_bounded_by_pending_plus_in_flight(self, rejoin):
        sites = ("CA", "VA", "IR")
        faults = (
            FaultSpec(kind="crash", at_s=0.6, site="IR"),
            FaultSpec(kind="recover", at_s=1.2, site="IR", rejoin=True),
        )
        spec = ExperimentSpec(
            name="acks-bounded",
            protocol="clock-rsm",
            sites=sites,
            workload=WorkloadSpec(
                scenario="balanced", clients_per_site=self.CLIENTS_PER_SITE,
                think_time_max_ms=0.0, app="kv",
            ),
            faults=faults if rejoin else (),
            warmup_s=0.0,
            duration_s=3.0,
            seed=3,
        )
        run = SimBackend().prepare(spec)
        run.cluster.run_for(spec.total_runtime_micros)
        assert run.handle.collector.count() > 100, "the run must commit enough to leak"
        # A closed loop keeps one command per client outstanding; an ack may
        # precede its PREPARE, so that many entries can be ahead of pending.
        in_flight = self.CLIENTS_PER_SITE * len(sites)
        for replica in run.cluster.replicas():
            state = replica.state
            assert len(state._acks) <= len(state._pending) + in_flight, (
                f"replica {replica.replica_id}: {len(state._acks)} ack sets for "
                f"{len(state._pending)} pending commands"
            )
