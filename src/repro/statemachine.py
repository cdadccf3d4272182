"""The replicated state machine interface.

State machine replication orders *commands*; the state machine interprets
them.  Protocols call :meth:`StateMachine.apply` exactly once per committed
command, in the agreed total order, so any deterministic implementation of
this interface is replicated consistently (the paper's Section II-B).

:mod:`repro.kvstore` provides the key-value state machine used throughout the
paper's evaluation; the small machines here are used by tests and examples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from .types import Command


class StateMachine(ABC):
    """A deterministic state machine driven by opaque command payloads."""

    @abstractmethod
    def apply(self, command: Command) -> Any:
        """Apply *command* and return its output.

        Must be deterministic: the output and the state transition may depend
        only on the current state and the command payload.  Must also be
        total: it runs after the command was agreed on and logged, on every
        replica, so a payload it cannot interpret is answered with an output
        saying so — raising would stop the replica mid-batch.
        """

    @abstractmethod
    def snapshot(self) -> bytes:
        """Serialize the current state (used for checkpoints/state transfer)."""

    @abstractmethod
    def restore(self, snapshot: bytes) -> None:
        """Replace the current state with a previously taken snapshot."""


class NullStateMachine(StateMachine):
    """Discards every command; useful for pure protocol benchmarks."""

    def __init__(self) -> None:
        self.applied_count = 0

    def apply(self, command: Command) -> Any:
        self.applied_count += 1
        return None

    def snapshot(self) -> bytes:
        return self.applied_count.to_bytes(8, "big")

    def restore(self, snapshot: bytes) -> None:
        self.applied_count = int.from_bytes(snapshot, "big")


class AppendLogStateMachine(StateMachine):
    """Records every applied payload in order; used by correctness tests.

    Two replicas are consistent exactly when their ``history`` lists are
    prefixes of one another, which makes linearizability/total-order checks
    straightforward to express.
    """

    def __init__(self) -> None:
        self.history: list[bytes] = []

    def apply(self, command: Command) -> Any:
        self.history.append(command.payload)
        return len(self.history)

    def snapshot(self) -> bytes:
        from .net.wire import encode

        return encode([bytes(p) for p in self.history])

    def restore(self, snapshot: bytes) -> None:
        from .net.wire import decode

        self.history = list(decode(snapshot))


__all__ = [
    "StateMachine",
    "NullStateMachine",
    "AppendLogStateMachine",
]
