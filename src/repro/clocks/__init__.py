"""Physical clock models.

Clock-RSM assumes each replica has a loosely synchronized physical clock.
This package provides:

* :class:`~repro.clocks.base.Clock` — the minimal interface the protocols
  consume (a monotonically non-decreasing :meth:`now`).
* :class:`~repro.clocks.base.MonotonicTimestampSource` — the strictly
  monotonic per-replica timestamp generator used when assigning command
  timestamps and PREPAREOK clock readings (the protocol requires both to be
  sent in increasing order).
* :class:`~repro.clocks.physical.SkewedClock` /
  :class:`~repro.clocks.physical.DriftingClock` — clock-error models used in
  simulation.
* :class:`~repro.clocks.physical.SystemClock` — wall-clock backed clock for
  the asyncio runtime.
"""

from .base import Clock, ManualClock, MonotonicClock, MonotonicTimestampSource, TimeSource
from .physical import DriftingClock, PerfectClock, SkewedClock, SystemClock

__all__ = [
    "Clock",
    "TimeSource",
    "ManualClock",
    "MonotonicClock",
    "MonotonicTimestampSource",
    "PerfectClock",
    "SkewedClock",
    "DriftingClock",
    "SystemClock",
]
