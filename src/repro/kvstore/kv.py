"""The key-value state machine."""

from __future__ import annotations

from typing import Optional

from ..errors import CodecError
from ..net.wire import decode, encode
from ..statemachine import StateMachine
from ..types import Command
from .commands import GET, PUT, REJECTED, read_op


class KVStateMachine(StateMachine):
    """An in-memory key-value store driven by replicated commands.

    Outputs:
        * ``PUT`` returns the previous value (or ``None``).
        * ``GET`` returns the current value (or ``None``).
        * ``DELETE`` returns whether the key existed.
        * A payload that is not a key-value operation is still applied — it
          was agreed on, so it counts on every replica — but changes no key
          and returns :data:`~repro.kvstore.commands.REJECTED`.
    """

    def __init__(self) -> None:
        self._data: dict[str, bytes] = {}
        self.applied_count = 0

    # -- StateMachine interface ------------------------------------------------

    def apply(self, command: Command) -> Optional[bytes] | bool | str:
        self.applied_count += 1
        try:
            op, key, value = read_op(command.payload)
        except CodecError:
            return REJECTED
        if op == PUT:
            previous = self._data.get(key)
            self._data[key] = value
            return previous
        if op == GET:
            return self._data.get(key)
        return self._data.pop(key, None) is not None  # DELETE

    def snapshot(self) -> bytes:
        return encode({"applied": self.applied_count, "data": dict(self._data)})

    def restore(self, snapshot: bytes) -> None:
        decoded = decode(snapshot)
        self.applied_count = int(decoded["applied"])
        self._data = {str(k): bytes(v) for k, v in decoded["data"].items()}

    # -- local inspection (not part of the replicated interface) ------------------

    def get(self, key: str) -> Optional[bytes]:
        """Read a key directly from local state (used by tests/examples)."""
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> list[str]:
        return sorted(self._data)


__all__ = ["KVStateMachine"]
