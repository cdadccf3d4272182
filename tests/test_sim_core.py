"""Tests for the discrete-event scheduler, environment and network."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.net.latency import LatencyMatrix
from repro.net.message import Envelope
from repro.sim.environment import SimulationEnvironment
from repro.sim.network import SimulatedNetwork
from repro.sim.scheduler import EventScheduler


class TestScheduler:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(30, lambda: fired.append("c"))
        scheduler.schedule_at(10, lambda: fired.append("a"))
        scheduler.schedule_at(20, lambda: fired.append("b"))
        while (event := scheduler.pop()) is not None:
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        scheduler = EventScheduler()
        fired = []
        for name in "abcd":
            scheduler.schedule_at(5, lambda n=name: fired.append(n))
        while (event := scheduler.pop()) is not None:
            event.callback()
        assert fired == ["a", "b", "c", "d"]

    def test_cancelled_events_are_skipped(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule_at(10, lambda: fired.append("x"))
        scheduler.schedule_at(20, lambda: fired.append("y"))
        event.cancel()
        assert len(scheduler) == 1
        while (e := scheduler.pop()) is not None:
            e.callback()
        assert fired == ["y"]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule_at(-1, lambda: None)


class TestEnvironment:
    def test_schedule_and_run_until(self):
        env = SimulationEnvironment()
        fired = []
        env.schedule(100, lambda: fired.append(env.now))
        env.schedule(300, lambda: fired.append(env.now))
        executed = env.run_until(200)
        assert executed == 1
        assert fired == [100]
        assert env.now == 200  # time advances to the target even when idle
        env.run_until(400)
        assert fired == [100, 300]

    def test_run_for_is_relative(self):
        env = SimulationEnvironment()
        env.schedule(50, lambda: None)
        env.run_for(100)
        assert env.now == 100
        env.run_for(100)
        assert env.now == 200

    def test_nested_scheduling_during_events(self):
        env = SimulationEnvironment()
        fired = []

        def first():
            fired.append(("first", env.now))
            env.schedule(10, lambda: fired.append(("second", env.now)))

        env.schedule(5, first)
        env.run_until_idle()
        assert fired == [("first", 5), ("second", 15)]

    def test_cannot_schedule_in_the_past(self):
        env = SimulationEnvironment()
        env.schedule(10, lambda: None)
        env.run_until_idle()
        with pytest.raises(SimulationError):
            env.schedule_at(5, lambda: None)

    def test_run_until_idle_guards_against_livelock(self):
        env = SimulationEnvironment()

        def rearm():
            env.schedule(1, rearm)

        env.schedule(1, rearm)
        with pytest.raises(SimulationError):
            env.run_until_idle(max_events=1000)

    def test_deterministic_randomness(self):
        a, b = SimulationEnvironment(seed=9), SimulationEnvironment(seed=9)
        assert [a.random.random() for _ in range(5)] == [b.random.random() for _ in range(5)]


def _network(jitter: float = 0.0, seed: int = 0):
    env = SimulationEnvironment(seed=seed)
    matrix = LatencyMatrix.from_rtt_ms(["A", "B", "C"], {
        ("A", "B"): 100.0, ("A", "C"): 200.0, ("B", "C"): 50.0,
    })
    network = SimulatedNetwork(env, matrix, jitter)
    received: dict[int, list[tuple]] = {0: [], 1: [], 2: []}
    for rid in range(3):
        network.attach(rid, lambda e, t, r=rid: received[r].append((e.message, t)))
    return env, network, received


class TestSimulatedNetwork:
    def test_delivery_uses_latency_matrix(self):
        env, network, received = _network()
        network.send(Envelope(0, 1, "hello"))
        network.send(Envelope(0, 2, "far"))
        env.run_until_idle()
        assert received[1] == [("hello", 50_000)]
        assert received[2] == [("far", 100_000)]
        assert network.delivered_count == 2

    def test_fifo_per_channel_even_with_jitter(self):
        env, network, received = _network(jitter=0.5, seed=3)
        for i in range(50):
            network.send(Envelope(0, 1, i))
        env.run_until_idle()
        messages = [m for m, _ in received[1]]
        assert messages == list(range(50))
        times = [t for _, t in received[1]]
        assert times == sorted(times)

    def test_partition_and_heal(self):
        # Quasi-reliable channels: a partition parks traffic, the heal
        # delivers it ahead of what is sent after.
        env, network, received = _network()
        network.partition(0, 1)
        network.send(Envelope(0, 1, "held"))
        env.run_until_idle()
        assert received[1] == []
        assert network.dropped_count == 0
        network.heal(0, 1)
        network.send(Envelope(0, 1, "ok"))
        env.run_until_idle()
        assert [m for m, _ in received[1]] == ["held", "ok"]

    def test_partitioning_a_replica_from_every_peer_blocks_all_its_traffic(self):
        env, network, received = _network()
        network.partition(2, 0)
        network.partition(2, 1)
        network.send(Envelope(0, 2, "x"))
        network.send(Envelope(2, 1, "y"))
        env.run_until_idle()
        assert received[2] == [] and received[1] == []
        network.heal(2, 0)
        network.heal(2, 1)
        network.send(Envelope(0, 2, "later"))
        env.run_until_idle()
        assert [m for m, _ in received[2]] == ["x", "later"]
        assert [m for m, _ in received[1]] == ["y"]

    def test_crashed_destination_drops_in_flight_messages(self):
        env, network, received = _network()
        network.send(Envelope(0, 1, "in-flight"))
        network.set_down(1, True)
        env.run_until_idle()
        assert received[1] == []
        network.set_down(1, False)
        network.send(Envelope(0, 1, "after"))
        env.run_until_idle()
        assert [m for m, _ in received[1]] == ["after"]

    def test_statistics_track_bytes(self):
        env, network, _ = _network()
        network.send(Envelope(0, 1, "m", size_hint=500))
        assert network.bytes_sent == 500
        assert network.sent_count == 1
