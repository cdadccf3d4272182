"""Tests for the workload generators."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiment import WorkloadSpec
from repro.kvstore.commands import decode_op, random_update
from repro.metrics.collector import LatencyCollector
from repro.workload.apps import payload_factory
from repro.workload.generator import ClosedLoopClients, SaturatingClients
from repro.workload.scenarios import build_workload
from repro.types import ms_to_micros, seconds_to_micros

from tests.helpers import make_cluster


class TestClosedLoopDefaults:
    def test_defaults_match_paper(self):
        clients = ClosedLoopClients(make_cluster("clock-rsm"), 0)
        assert clients.clients == 40
        assert clients.payload_size == 64
        assert clients.think_time_min == 0
        assert clients.think_time_max == ms_to_micros(80.0)


class TestClosedLoopClients:
    def test_each_client_keeps_one_command_outstanding(self):
        cluster = make_cluster("clock-rsm", uniform_one_way=10_000, seed=3)
        collector = LatencyCollector()
        generator = ClosedLoopClients(
            cluster, replica_id=0, clients=5, think_time_max=1_000, collector=collector
        )
        generator.start()
        cluster.run_for(seconds_to_micros(1.0))
        # Outstanding commands never exceed the number of clients.
        assert generator.submitted - generator.completed <= 5
        assert generator.submitted > 5  # clients cycled several times
        assert generator.completed >= generator.submitted - 5

    def test_stop_prevents_new_submissions(self):
        cluster = make_cluster("clock-rsm", uniform_one_way=1_000, seed=3)
        generator = ClosedLoopClients(cluster, 0, clients=3, think_time_max=1_000)
        generator.start()
        cluster.run_for(200_000)
        generator.stop()
        submitted = generator.submitted
        cluster.run_for(500_000)
        assert generator.submitted == submitted

    def test_payload_factory_generates_kv_updates(self):
        cluster = make_cluster("clock-rsm", uniform_one_way=1_000, seed=3, use_kv=True)
        generator = ClosedLoopClients(
            cluster,
            0,
            clients=2,
            think_time_max=1_000,
            payload_factory=lambda rng: random_update(rng, value_size=16),
        )
        generator.start()
        cluster.run_for(100_000)
        machine = cluster.state_machine(0)
        assert machine.applied_count > 0
        assert all(key.startswith("key-") for key in machine.keys())

    def test_latency_measurements_exclude_warmup(self):
        cluster = make_cluster("clock-rsm", uniform_one_way=5_000, seed=3)
        collector = LatencyCollector(warmup_until=300_000)
        generator = ClosedLoopClients(
            cluster, 0, clients=3, think_time_max=10_000, collector=collector
        )
        generator.start()
        cluster.run_for(seconds_to_micros(1.0))
        assert generator.completed > collector.count()


class TestSaturatingClients:
    def test_window_is_maintained(self):
        cluster = make_cluster("clock-rsm", uniform_one_way=2_000, seed=5)
        collector = LatencyCollector()
        generator = SaturatingClients(cluster, 0, payload_size=32, window=8, collector=collector)
        generator.start()
        cluster.run_for(300_000)
        assert generator.submitted - generator.completed <= 8
        assert generator.completed > 8

    def test_multiple_replicas_saturate_independently(self):
        cluster = make_cluster("paxos-bcast", uniform_one_way=2_000, seed=5)
        generators = [
            SaturatingClients(cluster, rid, payload_size=16, window=4)
            for rid in cluster.spec.replica_ids
        ]
        for generator in generators:
            generator.start()
        cluster.run_for(300_000)
        assert all(g.completed > 0 for g in generators)
        cluster.assert_consistent_order()


class TestWorkloadSpecLimits:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clients_per_site": 0},
            {"outstanding_per_site": 0},
            {"payload_size": -1},
            {"think_time_min_ms": 100.0, "think_time_max_ms": 50.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(**kwargs)


class TestPopulation:
    def test_balanced_puts_thinking_clients_at_every_site(self):
        spec = WorkloadSpec(clients_per_site=7)
        assert [spec.population(site) for site in ("CA", "VA")] == [(7, True), (7, True)]

    def test_imbalanced_puts_clients_only_at_the_origin(self):
        spec = WorkloadSpec(scenario="imbalanced", origin_site="IR", clients_per_site=5)
        assert spec.population("IR") == (5, True)
        assert spec.population("CA") is None

    def test_saturating_clients_never_think(self):
        spec = WorkloadSpec(scenario="saturating", outstanding_per_site=9, clients_per_site=3)
        assert spec.population("CA") == (9, False)


class TestBuildWorkload:
    def test_balanced_workload_measures_every_site(self):
        cluster = make_cluster("clock-rsm", seed=8)
        handle = build_workload(cluster, WorkloadSpec(clients_per_site=3, think_time_max_ms=20.0))
        cluster.run_for(seconds_to_micros(2.0))
        handle.stop()
        assert all(handle.collector.count(rid) for rid in cluster.spec.replica_ids)

    def test_imbalanced_workload_measures_only_the_origin(self):
        cluster = make_cluster("clock-rsm", seed=8)
        spec = WorkloadSpec(
            scenario="imbalanced", origin_site="IR", clients_per_site=3, think_time_max_ms=20.0
        )
        handle = build_workload(cluster, spec)
        cluster.run_for(seconds_to_micros(2.0))
        handle.stop()
        assert [rid for rid in cluster.spec.replica_ids if handle.collector.count(rid)] == [2]

    def test_saturating_workload_keeps_a_window_per_site(self):
        cluster = make_cluster("clock-rsm", uniform_one_way=2_000, seed=5)
        handle = build_workload(
            cluster, WorkloadSpec(scenario="saturating", outstanding_per_site=6, app="null")
        )
        assert all(isinstance(g, SaturatingClients) for g in handle.generators)
        assert [g.window for g in handle.generators] == [6, 6, 6]
        cluster.run_for(300_000)
        assert sum(g.submitted - g.completed for g in handle.generators) <= 18
        assert all(g.completed > 6 for g in handle.generators)

    def test_closed_loop_pools_take_the_spec_values(self):
        cluster = make_cluster("clock-rsm", seed=8)
        spec = WorkloadSpec(
            clients_per_site=4, payload_size=32, think_time_min_ms=2.0, think_time_max_ms=9.0
        )
        handle = build_workload(cluster, spec)
        handle.stop()
        for generator in handle.generators:
            assert isinstance(generator, ClosedLoopClients)
            assert generator.clients == 4
            assert generator.payload_size == 32
            assert (generator.think_time_min, generator.think_time_max) == (2_000, 9_000)

    def test_same_events_as_pools_built_by_hand(self):
        # build_workload adds nothing of its own: the pools it builds draw
        # from the simulation's random stream in the order hand-built ones do.
        spec = WorkloadSpec(clients_per_site=3, think_time_min_ms=1.0, think_time_max_ms=20.0)
        built = make_cluster("clock-rsm", seed=8, use_kv=True)
        handle = build_workload(built, spec, warmup=200_000)
        built.run_for(seconds_to_micros(1.0))

        by_hand = make_cluster("clock-rsm", seed=8, use_kv=True)
        collector = LatencyCollector(warmup_until=200_000)
        payloads = payload_factory(spec.app, spec.payload_size)
        for rid in by_hand.spec.replica_ids:
            ClosedLoopClients(
                by_hand, rid, 3, spec.payload_size, 1_000, 20_000, collector, payloads
            ).start()
        by_hand.run_for(seconds_to_micros(1.0))

        assert collector.count() > 0
        for rid in built.spec.replica_ids:
            assert handle.collector.latencies_micros(rid) == collector.latencies_micros(rid)
            assert built.state_machine(rid).snapshot() == by_hand.state_machine(rid).snapshot()
