"""Stable storage: the command log.

Every replica appends protocol records to its
:class:`~repro.storage.memory_log.InMemoryLog` before acknowledging them,
exactly as the paper requires ("append ... to Log" before sending
PREPAREOK).  Every backend logs in memory, as the paper does for its
throughput runs to keep the disk out of the measurement; the log survives a
simulated crash, and recovery replays it.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".log": ("LogRecord",),
        ".memory_log": ("InMemoryLog",),
    },
)

__all__ = [
    "LogRecord",
    "InMemoryLog",
]
