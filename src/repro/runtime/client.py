"""Asyncio key-value client for :class:`~repro.runtime.server.ReplicaServer`.

Provides ``put`` / ``get`` / ``delete`` coroutines over an in-process
server's :meth:`~repro.runtime.server.ReplicaServer.submit`, as an
application server colocated with the replica would in the paper's
deployment model.  Operations issued from separate tasks are in flight
concurrently; each resolves when its command commits.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..kvstore.commands import encode_delete, encode_get, encode_put
from ..types import Command, CommandId
from .server import ReplicaServer


class ReplicatedKVClient:
    """A key-value client bound to one replica server."""

    _ids = itertools.count(1)

    def __init__(self, server: ReplicaServer, name: Optional[str] = None) -> None:
        self._server = server
        self._name = name or f"kv-async-client-{next(self._ids)}"
        self._seq = itertools.count(1)

    async def put(self, key: str, value: bytes) -> Any:
        return await self._execute(encode_put(key, value))

    async def get(self, key: str) -> Any:
        return await self._execute(encode_get(key))

    async def delete(self, key: str) -> bool:
        return bool(await self._execute(encode_delete(key)))

    async def _execute(self, payload: bytes) -> Any:
        command = Command(CommandId(self._name, next(self._seq)), payload)
        return await self._server.submit(command)


__all__ = ["ReplicatedKVClient"]
