"""Client helpers for the replicated key-value store (simulation side).

:class:`SimKVClient` issues key-value commands against one replica of a
:class:`~repro.sim.cluster.SimulatedCluster` and advances virtual time until
the commit reply arrives, giving example scripts and tests a synchronous
``put``/``get``/``delete`` API with real replication underneath.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..checker.history import OpHistory
from ..errors import RequestTimeout
from ..sim.cluster import ReplyEvent, SimulatedCluster
from ..types import Command, CommandId, Micros, ReplicaId, seconds_to_micros
from .commands import encode_delete, encode_get, encode_put


class SimKVClient:
    """A synchronous key-value client bound to one replica of a simulation.

    Pass an :class:`~repro.checker.history.OpHistory` to record every
    invocation and response this client observes; after the session, snapshot
    ``cluster.execution_orders()`` into the history and hand it to
    :func:`repro.checker.check_history` to verify the session was
    linearizable.
    """

    _client_ids = itertools.count(1)

    def __init__(
        self,
        cluster: SimulatedCluster,
        replica_id: ReplicaId,
        timeout: Micros = seconds_to_micros(30.0),
        history: Optional[OpHistory] = None,
    ) -> None:
        self.cluster = cluster
        self.replica_id = replica_id
        self.timeout = timeout
        self.history = history
        self._name = f"kv-client-{next(self._client_ids)}@r{replica_id}"
        self._seq = itertools.count(1)
        self._results: dict[CommandId, Any] = {}
        cluster.on_reply(self._on_reply)

    # -- public API ------------------------------------------------------------

    def put(self, key: str, value: bytes) -> Optional[bytes]:
        """Replicate a PUT and return the key's previous value."""
        return self._execute(encode_put(key, value))

    def get(self, key: str) -> Optional[bytes]:
        """Replicate a linearizable GET and return the value."""
        return self._execute(encode_get(key))

    def delete(self, key: str) -> bool:
        """Replicate a DELETE and return whether the key existed."""
        return bool(self._execute(encode_delete(key)))

    # -- internals -----------------------------------------------------------------

    def _on_reply(self, event: ReplyEvent) -> None:
        if event.command_id.client == self._name:
            self._results[event.command_id] = event.output
            if self.history is not None:
                self.history.complete(event.command_id, event.output, event.time)

    def _execute(self, payload: bytes) -> Any:
        command = Command(
            CommandId(self._name, next(self._seq)), payload, created_at=self.cluster.env.now
        )
        if self.history is not None:
            self.history.invoke(
                command.command_id, self.replica_id, payload, self.cluster.env.now
            )
        self.cluster.submit(self.replica_id, command)
        deadline = self.cluster.env.now + self.timeout
        while command.command_id not in self._results:
            if self.cluster.env.now >= deadline:
                if self.history is not None:
                    self.history.fail(command.command_id, self.cluster.env.now)
                raise RequestTimeout(
                    f"command {command.command_id} did not commit within "
                    f"{self.timeout} µs of virtual time"
                )
            if not self.cluster.env.step():
                if self.history is not None:
                    self.history.fail(command.command_id, self.cluster.env.now)
                raise RequestTimeout(
                    f"simulation went idle before command {command.command_id} committed"
                )
        return self._results.pop(command.command_id)


__all__ = ["SimKVClient"]
