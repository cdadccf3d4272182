"""Physical clock models: skewed, drifting, and system clocks."""

from __future__ import annotations

import time

from ..errors import ClockError
from ..types import Micros
from .base import Clock, TimeSource


class SkewedClock(Clock):
    """A clock with a constant offset from true time.

    ``skew`` may be negative (the clock runs behind true time).  A negative
    reading is clamped to zero so that timestamps remain valid.
    """

    def __init__(self, source: TimeSource, skew: Micros = 0) -> None:
        self._source = source
        self._skew = skew

    def adjust(self, delta: Micros) -> None:
        """Slew the clock by *delta* microseconds."""
        self._skew += delta

    def now(self) -> Micros:
        return max(0, self._source.true_now() + self._skew)


class DriftingClock(Clock):
    """A clock with constant offset plus linear drift.

    ``drift_ppm`` is the frequency error in parts per million: a value of 50
    means the clock gains 50 µs per true second.  Real quartz oscillators
    exhibit tens of ppm of drift.
    """

    def __init__(self, source: TimeSource, skew: Micros = 0, drift_ppm: float = 0.0) -> None:
        self._source = source
        self._skew = skew
        self._drift_ppm = drift_ppm

    @property
    def drift_ppm(self) -> float:
        return self._drift_ppm

    def adjust(self, delta: Micros) -> None:
        """Slew the clock offset by *delta* microseconds."""
        self._skew += delta

    def error_at(self, true_now: Micros) -> Micros:
        """Total clock error (offset + accumulated drift) at *true_now*."""
        return self._skew + int(true_now * self._drift_ppm / 1_000_000)

    def now(self) -> Micros:
        true_now = self._source.true_now()
        return max(0, true_now + self.error_at(true_now))


class SystemClock(Clock, TimeSource):
    """Wall-clock backed clock for the asyncio runtime.

    Uses ``time.monotonic_ns`` anchored to ``time.time_ns`` at construction,
    mirroring the paper's use of ``clock_gettime`` to obtain monotonically
    increasing readings while remaining loosely synchronized (via the host's
    NTP daemon) with other replicas.  It is also the live runtime's *true
    time*: the skewed / drifting models read it as their source.
    """

    def __init__(self) -> None:
        self._anchor_wall_us = time.time_ns() // 1_000
        self._anchor_mono_us = time.monotonic_ns() // 1_000

    def now(self) -> Micros:
        elapsed = time.monotonic_ns() // 1_000 - self._anchor_mono_us
        if elapsed < 0:  # pragma: no cover - monotonic clocks do not go back
            raise ClockError("monotonic clock went backwards")
        return self._anchor_wall_us + elapsed

    true_now = now


__all__ = ["SkewedClock", "DriftingClock", "SystemClock"]
