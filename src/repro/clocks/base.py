"""Clock interfaces and monotonicity helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from ..types import Micros, ReplicaId, Timestamp


class TimeSource(ABC):
    """A source of "true" time, in microseconds.

    In simulation the time source is the discrete-event environment; in the
    asyncio runtime it is the operating system's monotonic clock.  Clock
    models (:mod:`repro.clocks.physical`) derive possibly-skewed readings
    from a time source.
    """

    @abstractmethod
    def true_now(self) -> Micros:
        """Return the current true time in microseconds."""


class Clock(ABC):
    """The clock interface consumed by the replication protocols.

    A clock returns microsecond readings that are *loosely* synchronized with
    other replicas' clocks.  Clock-RSM's correctness does not depend on the
    synchronization precision, only on sending timestamps in increasing
    order; :class:`MonotonicTimestampSource` guarantees that over any clock,
    including one stepped backwards.
    """

    @abstractmethod
    def now(self) -> Micros:
        """Return the current clock reading in microseconds."""


class MonotonicTimestampSource:
    """Generates strictly increasing :class:`Timestamp` values for a replica.

    Clock-RSM requires every replica to send PREPARE and PREPAREOK messages
    in timestamp order, and two commands originating at the same replica must
    never share a timestamp.  This source reads the replica's physical clock
    and bumps the reading by one microsecond whenever the clock has not
    advanced since the previous timestamp.
    """

    def __init__(self, clock: Clock, replica_id: ReplicaId) -> None:
        self._clock = clock
        self._replica_id = replica_id
        # Start at 0 (not -1) so that no issued timestamp ever has micros == 0.
        # ``LatestTV`` entries are initialised to 0 meaning "nothing received
        # from this replica yet"; a command timestamped 0 would satisfy the
        # stable-order condition vacuously and could commit ahead of a
        # smaller-tie-break command still in flight, breaking total order.
        self._last_micros: Micros = 0

    @property
    def replica_id(self) -> ReplicaId:
        return self._replica_id

    def next(self) -> Timestamp:
        """Return a fresh timestamp strictly greater than any issued before."""
        reading = self._clock.now()
        if reading <= self._last_micros:
            reading = self._last_micros + 1
        self._last_micros = reading
        return Timestamp(reading, self._replica_id)

    def observe(self, micros: Micros) -> None:
        """Record that *micros* was carried by an outgoing message.

        Keeps the "never send a smaller timestamp afterwards" promise when a
        clock reading is sent directly (e.g. CLOCKTIME broadcasts).
        """
        if micros > self._last_micros:
            self._last_micros = micros


ClockFactory = Callable[[ReplicaId], Clock]
"""Factory signature used by cluster builders to create per-replica clocks."""


__all__ = [
    "TimeSource",
    "Clock",
    "MonotonicTimestampSource",
    "ClockFactory",
]
