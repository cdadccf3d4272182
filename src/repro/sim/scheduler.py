"""Event scheduler: a priority queue of timestamped callbacks."""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Optional

from ..errors import SimulationError
from ..types import Micros


class ScheduledEvent:
    """The handle of a queued callback; ordering is (time, sequence number)."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: Micros, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the event; it will be skipped when its time comes."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ", cancelled" if self.cancelled else ""
        return f"ScheduledEvent(time={self.time}, seq={self.seq}{state})"


class EventScheduler:
    """A deterministic event queue.

    Events scheduled for the same time fire in scheduling order (FIFO), which
    keeps simulations reproducible run-to-run for a fixed seed.

    The heap holds ``(time, seq, event)`` tuples: ``seq`` is unique, so the
    heap orders entries by comparing two integers in C and never looks at the
    event.  :class:`~repro.sim.environment.SimulationEnvironment` runs its
    loop directly on this heap; :meth:`peek_time` / :meth:`pop` /
    :meth:`run_event` are the same steps one at a time.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[Micros, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        self.executed_count = 0

    def __len__(self) -> int:
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def schedule_at(self, time: Micros, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule *callback* to run at absolute simulation time *time*."""
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time}")
        seq = next(self._sequence)
        event = ScheduledEvent(time, seq, callback)
        heappush(self._queue, (time, seq, event))
        return event

    def peek_time(self) -> Optional[Micros]:
        """The timestamp of the next pending event, or ``None`` if empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
        return queue[0][0] if queue else None

    def pop(self) -> Optional[ScheduledEvent]:
        """Remove and return the next non-cancelled event, or ``None``."""
        queue = self._queue
        while queue:
            event = heappop(queue)[2]
            if not event.cancelled:
                return event
        return None

    def run_event(self, event: ScheduledEvent) -> None:
        self.executed_count += 1
        event.callback()


__all__ = ["EventScheduler", "ScheduledEvent"]
