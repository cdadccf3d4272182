"""The simulation environment: virtual time plus the event loop."""

from __future__ import annotations

import random
from heapq import heappop
from math import inf
from typing import Callable, Optional

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
        self._now: Micros = 0
        self.scheduler = EventScheduler()
        self.random = random.Random(seed)
        self.seed = seed

    # -- TimeSource ------------------------------------------------------------

    def true_now(self) -> Micros:
        return self._now

    @property
    def now(self) -> Micros:
        """Current simulation time in microseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: Micros, callback: Callable[[], None]) -> ScheduledEvent:
        """Run *callback* after *delay* microseconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.scheduler.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: Micros, callback: Callable[[], None]) -> ScheduledEvent:
        """Run *callback* at absolute virtual time *time* (>= now)."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self._now})")
        return self.scheduler.schedule_at(time, callback)

    # -- running ---------------------------------------------------------------

    def _run(self, until: float, max_events: Optional[int]) -> int:
        """The engine's one loop; returns how many events it executed.

        Runs events in (time, scheduling order) while their time is <= *until*
        and fewer than *max_events* have run.  Per event: look at the head of
        the scheduler's heap, drop it if cancelled, otherwise pop it, advance
        virtual time to it, count it and call it.
        """
        scheduler = self.scheduler
        # The scheduler's heap of ``(time, seq, event)``, worked on in place
        # rather than through one ``peek_time`` / ``pop`` call per event.
        queue = scheduler._queue
        limit = -1 if max_events is None else max_events  # -1: never reached
        executed = 0
        while queue:
            time, _, event = queue[0]
            if event.cancelled:
                heappop(queue)
                continue
            if executed == limit or time > until:
                break
            if time < self._now:  # pragma: no cover - defensive
                raise SimulationError("event queue produced an event in the past")
            heappop(queue)
            self._now = time
            scheduler.executed_count += 1
            executed += 1
            event.callback()
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
        if time > self._now:
            pending = self.scheduler.peek_time()
            if pending is None or pending > time:
                self._now = time
        return executed

    def run_for(self, duration: Micros, max_events: Optional[int] = None) -> int:
        """Run the simulation for *duration* microseconds of virtual time."""
        return self.run_until(self._now + duration, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by *max_events*)."""
        executed = self._run(inf, max_events)
        if executed >= max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return executed


__all__ = ["SimulationEnvironment"]
