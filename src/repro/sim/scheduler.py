"""Event scheduler: a priority queue of timestamped callbacks — and the one
timer interface replica hosts are written against, under either clock."""

from __future__ import annotations

import asyncio
import itertools
from heapq import heappop, heappush
from random import Random
from typing import Any, Callable, Optional, Protocol

from ..errors import SimulationError
from ..types import Micros


class ScheduledEvent:
    """The handle of a queued callback; ordering is (time, sequence number).

    An event is anything with a ``cancelled`` flag and a ``callback()``: the
    run loop asks nothing else.  :meth:`Timer.enqueue` queues such an object
    as it is — the link model's message in flight
    (:class:`~repro.sim.network.InFlight`) is its own event.
    """

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
    event.  :meth:`push` queues a ready-made event under the next ``seq``.
    :class:`~repro.sim.environment.SimulationEnvironment` runs its loop
    directly on this heap; :meth:`peek_time` / :meth:`pop` are the same
    steps one at a time.
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

    def push(self, time: Micros, event: Any) -> None:
        """Queue *event* (``cancelled`` and ``callback()``) as it is."""
        heappush(self._queue, (time, next(self._sequence), event))

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


class Timer(Protocol):
    """Where time comes from, for code that runs under either clock.

    :class:`~repro.sim.environment.SimulationEnvironment` supplies it in
    virtual time and :class:`LoopTimer` on the running asyncio loop, so the
    link model (:class:`~repro.sim.network.SimulatedNetwork`) and the
    batching accumulator (:class:`~repro.net.batching.BatchAccumulator`) are
    one body each.  Times are integer µs; the returned handle's ``cancel()``
    disarms the callback.

    :meth:`enqueue` is the one way in for an event that already exists — an
    object with a ``cancelled`` flag and a ``callback()`` method, queued
    as it is under (time, scheduling order) like any other.  The link model
    queues each message in flight this way, so a message costs one object
    and one queue entry rather than a handle wrapping a closure.  Such an
    event is never cancelled: the caller keeps no handle.
    """

    random: Random

    @property
    def now(self) -> Micros: ...

    def schedule(self, delay: Micros, callback: Callable[[], None]) -> Any: ...

    def schedule_at(self, time: Micros, callback: Callable[[], None]) -> Any: ...

    def enqueue(self, time: Micros, event: Any) -> None: ...


class LoopTimer:
    """:class:`Timer` on the running asyncio event loop.

    ``loop.call_at`` alone would not do: asyncio's timer heap does not keep
    equal deadlines in call order, and integer-µs times plus the link
    model's FIFO clamp make equal deadlines routine.  So future events wait
    in an :class:`EventScheduler` — (time, scheduling order), as in the
    simulator — with one ``call_at`` armed for its head; a wake-up runs every
    event due by then.  A deadline already reached is a ``call_soon``.
    """

    def __init__(self) -> None:
        self.random = Random(0)
        self._events = EventScheduler()
        self._armed: Optional[asyncio.TimerHandle] = None
        self._armed_at: Micros = 0

    @property
    def now(self) -> Micros:
        return int(asyncio.get_running_loop().time() * 1_000_000)

    def schedule(self, delay: Micros, callback: Callable[[], None]) -> Any:
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: Micros, callback: Callable[[], None]) -> Any:
        loop = asyncio.get_running_loop()
        queue = self._events._queue
        # Due already: run it this tick — unless an event due no later is
        # still waiting for its wake-up, which must run first.
        if time <= loop.time() * 1_000_000 and not (queue and queue[0][0] <= time):
            return loop.call_soon(callback)
        event = self._events.schedule_at(time, callback)
        if queue[0][2] is event:  # a new earliest deadline
            self._arm(loop, time)
        return event

    def enqueue(self, time: Micros, event: Any) -> None:
        loop = asyncio.get_running_loop()
        queue = self._events._queue
        # As in schedule_at.
        if time <= loop.time() * 1_000_000 and not (queue and queue[0][0] <= time):
            loop.call_soon(event.callback)
            return
        self._events.push(time, event)
        if queue[0][2] is event:
            self._arm(loop, time)

    def _arm(self, loop: asyncio.AbstractEventLoop, time: Micros) -> None:
        if self._armed is not None:
            self._armed.cancel()
        self._armed_at = time
        self._armed = loop.call_at(time / 1_000_000, self._run_due)

    def _run_due(self) -> None:
        self._armed = None
        # ``_armed_at`` covers a wake-up a clock tick early; a head later than
        # ``due`` stays (the event armed for was cancelled since).
        due, queue = max(self._armed_at, self.now), self._events._queue
        try:
            while queue and queue[0][0] <= due:
                event = heappop(queue)[2]
                if not event.cancelled:
                    event.callback()
        finally:
            head = self._events.peek_time()
            if head is not None and self._armed is None:
                self._arm(asyncio.get_running_loop(), head)


__all__ = ["EventScheduler", "LoopTimer", "ScheduledEvent", "Timer"]
