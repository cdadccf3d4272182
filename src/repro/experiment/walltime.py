"""Spec time → wall time for the live backends.

A live run divides every spec-time duration by its ``time_scale``.  The
``async`` backend and the ``proc`` workers build their replicas from these
functions, so a protocol timer, a batching window or a clock offset is scaled
the same way wherever the replica runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from ..clocks.base import Clock
from ..clocks.physical import DriftingClock, SkewedClock, SystemClock
from ..config import BatchingOptions, ProtocolConfig
from ..types import ReplicaId, ms_to_micros
from .spec import ExperimentSpec


def scaled_protocol_config(spec: ExperimentSpec, time_scale: float) -> ProtocolConfig:
    """The spec's protocol config with time-valued knobs in wall-clock units."""
    config = spec.protocol_config()
    interval = max(ms_to_micros(1.0), int(config.clocktime_interval / time_scale))
    return replace(config, clocktime_interval=interval)


def scaled_batching(spec: ExperimentSpec, time_scale: float) -> Optional[BatchingOptions]:
    """The spec's batching options with the window in wall-clock time.

    ``window_us`` is a spec-time duration like every other delay, so it is
    divided by ``time_scale`` (sizes and depths are dimensionless).
    """
    if spec.batching is None:
        return None
    options = spec.batching.options()
    if options.window_us == 0 or time_scale == 1:
        return options
    return replace(options, window_us=max(1, int(options.window_us / time_scale)))


def clock_factory(
    spec: ExperimentSpec, time_scale: float
) -> Optional[Callable[[ReplicaId], Optional[Clock]]]:
    """Per-replica wall clocks with the spec's offsets (scaled) and drifts.

    ``None``, from here or from the factory, means the default system clock.
    """
    offsets = spec.clock_offsets()
    drifts = spec.clock_drift_ppm()
    # Clock-jump faults step clocks mid-run, so every replica then needs
    # an adjustable clock even if it starts perfectly synchronized.
    jumpy = any(fault.kind == "clock-jump" for fault in spec.faults)
    if not offsets and not drifts and not jumpy:
        return None

    def factory(replica_id: ReplicaId) -> Optional[Clock]:
        offset = int(offsets.get(replica_id, 0) / time_scale)
        drift = drifts.get(replica_id, 0.0)
        if drift:
            return DriftingClock(SystemClock(), skew=offset, drift_ppm=drift)
        if offset or jumpy:
            return SkewedClock(SystemClock(), skew=offset)
        return None

    return factory


__all__ = ["scaled_protocol_config", "scaled_batching", "clock_factory"]
