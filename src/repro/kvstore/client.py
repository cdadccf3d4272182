"""Client helpers for the replicated key-value store (simulation side).

:class:`SimKVClient` issues key-value commands against one replica of a
:class:`~repro.sim.cluster.SimulatedCluster` and advances virtual time until
the commit reply arrives, giving example scripts and tests a synchronous
``put``/``get``/``delete`` API with real replication underneath.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..errors import RequestTimeout
from ..sim.cluster import ReplyEvent, SimulatedCluster
from ..types import Command, CommandId, Micros, ReplicaId, seconds_to_micros
from .commands import encode_delete, encode_get, encode_put

#: Virtual time a command may take to commit before it raises.
TIMEOUT: Micros = seconds_to_micros(30.0)


class SimKVClient:
    """A synchronous key-value client bound to one replica of a simulation.

    A :class:`~repro.checker.history.HistoryRecorder` on the cluster records
    its session for :func:`repro.checker.check_history`.
    """

    _client_ids = itertools.count(1)

    def __init__(self, cluster: SimulatedCluster, replica_id: ReplicaId) -> None:
        self.cluster = cluster
        self.replica_id = replica_id
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

    def _execute(self, payload: bytes) -> Any:
        command = Command(
            CommandId(self._name, next(self._seq)), payload, created_at=self.cluster.env.now
        )
        self.cluster.submit(self.replica_id, command)
        deadline = self.cluster.env.now + TIMEOUT
        while command.command_id not in self._results:
            if self.cluster.env.now >= deadline:
                raise RequestTimeout(
                    f"command {command.command_id} did not commit within "
                    f"{TIMEOUT} µs of virtual time"
                )
            if not self.cluster.env.step():
                raise RequestTimeout(
                    f"simulation went idle before command {command.command_id} committed"
                )
        return self._results.pop(command.command_id)


__all__ = ["SimKVClient"]
