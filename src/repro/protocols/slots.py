"""Slot bookkeeping shared by the Paxos and Mencius baselines.

Both baselines agree on a sequence of numbered slots; each slot holds one
*unit* — a single command or a :class:`~repro.protocols.records.CommandBatch`
— which executes when the slot is decided and every earlier slot has been
executed (or skipped).  :class:`SlotLedger` tracks per-slot state,
acknowledgement quorums, and the execution frontier; batching therefore
changes how many client commands ride in one slot, never the slot order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from ..types import ReplicaId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .records import CommandUnit


@dataclass
class SlotState:
    """Mutable state of one slot."""

    slot: int
    command: Optional["CommandUnit"] = None
    acks: set[ReplicaId] = field(default_factory=set)
    decided: bool = False
    skipped: bool = False

    @property
    def has_command(self) -> bool:
        return self.command is not None or self.skipped


class SlotLedger:
    """Tracks slot states and yields slots ready for in-order execution.

    A slot is forgotten once the execution frontier passes it: the ledger
    holds only slots not yet executed, however long the run.  A slot below
    the frontier reads as a decided slot that is never stored again, so a
    late acknowledgement or a repeated decision for it changes nothing (the
    command it held lives on in the replica's log).
    """

    def __init__(self, replicas: Iterable[ReplicaId]) -> None:
        #: The replica set: an acknowledgement from anyone else counts for nothing.
        self._replicas = frozenset(replicas)
        self._slots: dict[int, SlotState] = {}
        #: The next slot index to execute (all smaller slots are executed).
        self.execute_frontier = 0

    # -- accessors ----------------------------------------------------------

    def get(self, slot: int) -> SlotState:
        state = self._slots.get(slot)
        if state is None:
            state = SlotState(slot)
            if slot < self.execute_frontier:
                state.decided = True
                return state
            self._slots[slot] = state
        return state

    def peek(self, slot: int) -> Optional[SlotState]:
        """The state of a slot not yet executed, if any message mentioned it."""
        return self._slots.get(slot)

    # -- state transitions ----------------------------------------------------

    def record_command(self, slot: int, command: "CommandUnit") -> SlotState:
        state = self.get(slot)
        if state.command is None:
            state.command = command
        return state

    def add_ack(self, slot: int, replica: ReplicaId) -> int:
        """Record *replica*'s ack of *slot*; returns the slot's distinct ackers."""
        state = self.get(slot)
        if replica in self._replicas:
            state.acks.add(replica)
        return len(state.acks)

    def mark_skipped(self, slot: int) -> SlotState:
        state = self.get(slot)
        state.skipped = True
        state.decided = True
        return state

    # -- execution ----------------------------------------------------------------

    def pop_executable(
        self, implicit_skip: Optional[Callable[[int], bool]] = None
    ) -> Iterator[SlotState]:
        """Yield slots ready to execute, advancing the frontier past them.

        A slot is ready when it is decided (with its command present) or when
        *implicit_skip* reports that its coordinator can no longer propose in
        it (Mencius skips learned via ``skip_until`` announcements).  Either
        way the frontier's advance forgets it.
        """
        slots = self._slots
        while True:
            slot = self.execute_frontier
            state = slots.get(slot)
            if state is not None and state.decided and state.has_command:
                del slots[slot]
                self.execute_frontier += 1
                yield state
                continue
            if (state is None or not state.decided) and implicit_skip is not None:
                if implicit_skip(slot):
                    slots.pop(slot, None)
                    self.execute_frontier += 1
                    continue
            break


__all__ = ["SlotState", "SlotLedger"]
