"""One accumulate-and-flush primitive for every batching site.

Three places coalesce work — the replica driver (commands into
:class:`~repro.protocols.records.CommandBatch` units), the TCP transport
(per-peer envelopes into multi-message frames), and the simulator's
submission path (commands into units, per replica).  They all share the
same semantics, so they share this accumulator: flush when ``max_batch``
items are queued or when the window expires, where ``window_us = 0`` means
"flush whatever the current instant queues, never wait" — the current
event-loop tick, or the current virtual instant in the simulator.  Time
comes from the :class:`~repro.sim.scheduler.Timer` the owner passes: a
:class:`~repro.sim.scheduler.LoopTimer` on the asyncio loop, the
:class:`~repro.sim.environment.SimulationEnvironment` in the simulator.

A size-triggered flush cancels the armed window timer (and vice versa), so
a flush can never fire into the *next* accumulation — the queue length at
flush time is always ≤ ``max_batch``, which callers may rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generic, List, Optional, TypeVar

from ..config import BatchingOptions

if TYPE_CHECKING:
    from ..sim.scheduler import Timer

T = TypeVar("T")


class BatchAccumulator(Generic[T]):
    """Accumulates items and hands them to *flush* in bounded groups."""

    def __init__(
        self, options: BatchingOptions, flush: Callable[[List[T]], None], timer: Timer
    ) -> None:
        self._options = options
        self._flush_cb = flush
        self._timer = timer
        self._items: list[T] = []
        self._handle: Optional[Any] = None

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: T) -> None:
        """Queue *item*; flushes immediately once ``max_batch`` is reached."""
        self._items.append(item)
        if len(self._items) >= self._options.max_batch:
            self.flush()
        elif self._handle is None:
            self._handle = self._timer.schedule(self._options.window_us, self.flush)

    def flush(self) -> None:
        """Deliver everything queued (≤ max_batch items) to the callback."""
        self._cancel_timer()
        if not self._items:
            return
        items, self._items = self._items, []
        self._flush_cb(items)

    def clear(self) -> None:
        """Drop queued items and disarm the timer (owner is shutting down)."""
        self._cancel_timer()
        self._items.clear()

    def _cancel_timer(self) -> None:
        if self._handle is not None:
            # Cancelling the handle currently running this flush is a no-op.
            self._handle.cancel()
            self._handle = None


__all__ = ["BatchAccumulator"]
