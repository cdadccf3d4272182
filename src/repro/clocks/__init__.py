"""Physical clock models.

Clock-RSM assumes each replica has a loosely synchronized physical clock.
This package provides:

* :class:`~repro.clocks.base.Clock` — the minimal interface the protocols
  consume (one :meth:`now` reading in microseconds).
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

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".base": ("Clock", "MonotonicTimestampSource", "TimeSource"),
        ".physical": ("DriftingClock", "SkewedClock", "SystemClock"),
    },
)

__all__ = [
    "Clock",
    "TimeSource",
    "MonotonicTimestampSource",
    "SkewedClock",
    "DriftingClock",
    "SystemClock",
]
