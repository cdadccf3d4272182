"""Tests for the simulated node's CPU/batching cost model."""

from __future__ import annotations

import pytest

from repro.core.messages import Prepare, PrepareOk
from repro.sim.node import CpuModel, MESSAGE_HEADER_BYTES, default_message_size
from repro.types import Command, CommandId, Timestamp, seconds_to_micros

from tests.helpers import make_cluster, sim_command, submit_at


class TestMessageSizeEstimate:
    def test_plain_message_is_header_sized(self):
        assert default_message_size(PrepareOk(Timestamp(1, 0), 2)) == MESSAGE_HEADER_BYTES

    def test_command_payload_is_counted(self):
        command = Command(CommandId("c", 1), b"x" * 100)
        size = default_message_size(Prepare(command, Timestamp(1, 0)))
        assert size == MESSAGE_HEADER_BYTES + 100 + 24

    def test_record_batches_count_every_command(self):
        from repro.core.messages import PrepareRecord, SuspendOk

        records = tuple(
            PrepareRecord(Command(CommandId("c", i), b"y" * 10), Timestamp(i, 0)) for i in range(3)
        )
        size = default_message_size(SuspendOk(1, records))
        assert size == MESSAGE_HEADER_BYTES + 3 * (10 + 24)


class TestCpuModel:
    def test_costs_scale_with_groups_and_bytes(self):
        model = CpuModel(recv_fixed=10, recv_per_byte=0.1, send_fixed=20, send_per_byte=0.2)
        assert model.receive_cost(groups=3, total_bytes=100) == 40
        assert model.send_cost(groups=2, total_bytes=50) == 50

    def test_zero_work_costs_nothing(self):
        model = CpuModel()
        assert model.receive_cost(0, 0) == 0
        assert model.send_cost(0, 0) == 0


class TestCpuSimulation:
    def _run(self, cpu_model, command_count=30):
        cluster = make_cluster(
            "clock-rsm",
            sites=("a", "b", "c"),
            uniform_one_way=200,
            seed=1,
            cpu_model=cpu_model,
        )
        cluster.start()
        for i in range(command_count):
            submit_at(cluster, i * 500, i % 3, sim_command(cluster, b"p" * 64, client=f"c{i % 3}")
            )
        cluster.run_for(seconds_to_micros(3.0))
        return cluster

    def test_zero_cost_model_matches_no_model(self):
        with_none = self._run(cpu_model=None)
        with_zero = self._run(cpu_model=CpuModel(0, 0, 0, 0, 0))
        assert len(with_none.replies) == len(with_zero.replies) == 30
        assert [e.command_id for e in with_none.replies] == [e.command_id for e in with_zero.replies]

    def test_cpu_model_delays_but_preserves_correctness(self):
        fast = self._run(cpu_model=None)
        slow = self._run(cpu_model=CpuModel(recv_fixed=200, recv_per_byte=1.0,
                                            send_fixed=200, send_per_byte=1.0))
        assert len(slow.replies) == 30
        slow.assert_consistent_order()
        # CPU work strictly increases every command's commit latency.
        fast_by_id = {e.command_id: e.time for e in fast.replies}
        slow_by_id = {e.command_id: e.time for e in slow.replies}
        assert all(slow_by_id[cid] > fast_by_id[cid] for cid in fast_by_id)

    def test_busy_time_and_utilization_are_tracked(self):
        cluster = self._run(cpu_model=CpuModel(recv_fixed=100, recv_per_byte=0.5,
                                               send_fixed=100, send_per_byte=0.5))
        for node in cluster.nodes.values():
            assert node.busy_micros > 0
            assert 0.0 < node.utilization(cluster.now) <= 1.0

    def test_throughput_is_bounded_by_the_cpu_model(self):
        # With an extremely slow CPU, fewer commands commit in a fixed window
        # than with a fast one.
        from repro.metrics.collector import LatencyCollector
        from repro.statemachine import NullStateMachine
        from repro.workload.generator import SaturatingClients
        from repro.config import ClusterSpec, ProtocolConfig
        from repro.net.latency import LatencyMatrix
        from repro.sim.cluster import SimulatedCluster

        def run(model):
            sites = ["d0", "d1", "d2"]
            cluster = SimulatedCluster(
                ClusterSpec.from_sites(sites),
                LatencyMatrix.uniform(sites, one_way=50),
                "clock-rsm",
                ProtocolConfig(),
                seed=2,
                cpu_model=model,
                state_machine_factory=lambda _rid: NullStateMachine(),
            )
            collector = LatencyCollector()
            for replica_id in cluster.spec.replica_ids:
                SaturatingClients(cluster, replica_id, 64, 16, collector).start()
            cluster.run_for(200_000)
            return collector.count()

        fast = run(CpuModel(5, 0.005, 5, 0.005))
        slow = run(CpuModel(500, 0.5, 500, 0.5))
        assert slow < fast
