"""Tests for the clock subsystem."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clocks.base import MonotonicTimestampSource
from repro.clocks.physical import DriftingClock, SkewedClock, SystemClock
from repro.errors import ClockError
from repro.sim.environment import SimulationEnvironment

from tests.helpers import ManualClock


class TestManualClock:
    def test_advance(self):
        clock = ManualClock(10)
        assert clock.now() == 10
        clock.advance(5)
        assert clock.now() == 15

    def test_cannot_go_backwards(self):
        clock = ManualClock(10)
        with pytest.raises(ClockError):
            clock.advance(-1)
        with pytest.raises(ClockError):
            clock.set(5)

    def test_set_forward(self):
        clock = ManualClock(10)
        clock.set(100)
        assert clock.now() == 100


class _FlakyClock:
    """A clock that jumps backwards (e.g. a stepped NTP adjustment)."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def now(self):
        return next(self._readings)


class TestMonotonicTimestampSource:
    def test_stays_increasing_over_a_clock_stepped_backwards(self):
        source = MonotonicTimestampSource(_FlakyClock([10, 20, 15, 30]), replica_id=0)
        assert [source.next().micros for _ in range(4)] == [10, 20, 21, 30]

    def test_strictly_increasing_even_with_frozen_clock(self):
        clock = ManualClock(100)
        source = MonotonicTimestampSource(clock, replica_id=2)
        first = source.next()
        second = source.next()
        third = source.next()
        assert first.micros == 100
        assert second.micros == 101
        assert third.micros == 102
        assert first < second < third
        assert first.replica == 2

    def test_follows_clock_when_it_advances(self):
        clock = ManualClock(100)
        source = MonotonicTimestampSource(clock, replica_id=0)
        assert source.next().micros == 100
        clock.advance(50)
        assert source.next().micros == 150

    def test_observe_prevents_smaller_future_timestamps(self):
        clock = ManualClock(100)
        source = MonotonicTimestampSource(clock, replica_id=0)
        source.observe(500)
        assert source.next().micros == 501

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_always_strictly_increasing(self, advances):
        clock = ManualClock(0)
        source = MonotonicTimestampSource(clock, replica_id=1)
        previous = None
        for delta in advances:
            clock.advance(delta)
            ts = source.next()
            if previous is not None:
                assert ts > previous
            previous = ts


class TestPhysicalClocks:
    def test_skewed_clock_offsets_readings(self):
        env = SimulationEnvironment()
        ahead = SkewedClock(env, skew=250)
        behind = SkewedClock(env, skew=-250)
        assert ahead.now() == 250
        assert behind.now() == 0  # clamped at zero
        env.schedule(1_000, lambda: None)
        env.run_until_idle()
        assert ahead.now() == 1_250
        assert behind.now() == 750

    def test_a_zero_skew_clock_reads_environment_time(self):
        env = SimulationEnvironment()
        clock = SkewedClock(env, skew=0)
        env.schedule(1_234, lambda: None)
        env.run_until_idle()
        assert clock.now() == env.true_now() == 1_234

    def test_skewed_clock_adjust(self):
        env = SimulationEnvironment()
        clock = SkewedClock(env, skew=100)
        clock.adjust(-40)
        assert clock.now() == 60

    def test_drifting_clock_accumulates_error(self):
        env = SimulationEnvironment()
        clock = DriftingClock(env, skew=0, drift_ppm=100.0)
        env.schedule(1_000_000, lambda: None)  # one simulated second
        env.run_until_idle()
        assert clock.now() == 1_000_000 + 100

    def test_system_clock_is_monotonic(self):
        clock = SystemClock()
        readings = [clock.now() for _ in range(100)]
        assert readings == sorted(readings)
