"""The simulation environment: virtual time plus the event loop."""

from __future__ import annotations

import random
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from ..clocks.base import TimeSource
from ..errors import SimulationError
from ..types import Micros
from .scheduler import EventScheduler, ScheduledEvent


class SimulationEnvironment(TimeSource):
    """Virtual time, the event queue, and the simulation's random source.

    The environment is the single :class:`~repro.clocks.base.TimeSource` for
    every simulated clock, so clock skew is modelled purely by the clock
    objects and "true time" advances only when events execute.
    """

    def __init__(self, seed: int = 0) -> None:
        #: Current simulation time in microseconds.  A plain attribute, read
        #: on every send, reply and clock reading; only the run loop moves it.
        self.now: Micros = 0
        self.scheduler = EventScheduler()
        # The scheduler's heap and sequence, for the two hot paths that work
        # on them directly: :meth:`enqueue` and the run loop.
        self._queue = self.scheduler._queue
        self._sequence = self.scheduler._sequence
        self.random = random.Random(seed)
        self.seed = seed

    # -- TimeSource ------------------------------------------------------------

    def true_now(self) -> Micros:
        return self.now

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: Micros, callback: Callable[[], None]) -> ScheduledEvent:
        """Run *callback* after *delay* microseconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.scheduler.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: Micros, callback: Callable[[], None]) -> ScheduledEvent:
        """Run *callback* at absolute virtual time *time* (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        return self.scheduler.schedule_at(time, callback)

    def enqueue(self, time: Micros, event: Any) -> None:
        """Queue a ready-made *event* (``cancelled``, ``callback()``) at *time*."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        heappush(self._queue, (time, next(self._sequence), event))

    # -- running ---------------------------------------------------------------

    def _run(self, until: float, max_events: Optional[int]) -> int:
        """The engine's one loop; returns how many events it executed.

        Runs events in (time, scheduling order) while their time is <= *until*
        and fewer than *max_events* have run.  Per event: pop the head of the
        scheduler's heap, drop it if cancelled, put it back and stop if it is
        past *until*, otherwise advance virtual time to it and call it.  The
        scheduler's ``executed_count`` is brought up to date once, when the
        loop ends — also when a callback raises.
        """
        # The scheduler's heap of ``(time, seq, event)``, worked on in place
        # rather than through one ``peek_time`` / ``pop`` call per event.
        queue = self._queue
        limit = -1 if max_events is None else max_events  # -1: never reached
        executed = 0
        try:
            while queue and executed != limit:
                entry = heappop(queue)
                time, _, event = entry
                if event.cancelled:
                    continue
                if time > until:
                    heappush(queue, entry)  # same (time, seq): same place
                    break
                if time < self.now:  # pragma: no cover - defensive
                    raise SimulationError("event queue produced an event in the past")
                self.now = time
                executed += 1
                event.callback()
        finally:
            self.scheduler.executed_count += executed
        return executed

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        return self._run(inf, 1) == 1

    def run_until(self, time: Micros, max_events: Optional[int] = None) -> int:
        """Run events with timestamps <= *time*; returns how many executed.

        Virtual time is advanced to *time* at the end even if the queue runs
        dry earlier, so periodic activities can be resumed consistently — but
        not over events *max_events* left unrun, which would put them in the
        past.
        """
        executed = self._run(time, max_events)
        if time > self.now:
            pending = self.scheduler.peek_time()
            if pending is None or pending > time:
                self.now = time
        return executed

    def run_for(self, duration: Micros, max_events: Optional[int] = None) -> int:
        """Run the simulation for *duration* microseconds of virtual time."""
        return self.run_until(self.now + duration, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by *max_events*)."""
        executed = self._run(inf, max_events)
        if executed >= max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return executed


__all__ = ["SimulationEnvironment"]
