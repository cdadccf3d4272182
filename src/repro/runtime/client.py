"""Asyncio key-value client for :class:`~repro.runtime.server.ReplicaServer`.

Connects to a replica's client endpoint over TCP (or uses an in-process
server directly) and provides ``put`` / ``get`` / ``delete`` coroutines, as
an application server colocated with the replica would in the paper's
deployment model.

The TCP path is **pipelined**: responses are matched to requests by command
id by a background dispatcher, so any number of operations may be in flight
on one connection concurrently (issue them from separate tasks, or use
:meth:`ReplicatedKVClient.pipelined` to run a whole list with a bounded
depth).  With :class:`~repro.config.BatchingOptions`, outgoing request
frames are additionally coalesced: requests issued within the accumulation
window ship as one framed multi-message envelope — one TCP write for the
whole group (``window_us = 0`` coalesces whatever the current event-loop
tick produced).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Awaitable, Callable, Optional, Sequence

from ..config import BatchingOptions
from ..errors import ClientError
from ..kvstore.commands import encode_delete, encode_get, encode_put
from ..net.batching import BatchAccumulator
from ..net.message import Envelope, EnvelopeBatch, MessageRegistry, global_registry
from ..net.tcp import READ_CHUNK_BYTES, FrameParser, encode_batch_frame, encode_frame
from ..sim.scheduler import LoopTimer
from ..types import Command, CommandId
from .messages import ClientRequest, ClientResponse
from .server import ReplicaServer


class ReplicatedKVClient:
    """A key-value client bound to one replica server."""

    _ids = itertools.count(1)

    def __init__(
        self,
        server: Optional[ReplicaServer] = None,
        address: Optional[str] = None,
        registry: Optional[MessageRegistry] = None,
        name: Optional[str] = None,
        batching: Optional[BatchingOptions] = None,
    ) -> None:
        if server is None and address is None:
            raise ClientError("either an in-process server or a TCP address is required")
        self._server = server
        self._address = address
        self._registry = registry or global_registry
        self._name = name or f"kv-async-client-{next(self._ids)}"
        self._batching = batching if batching is not None and batching.enabled else None
        self._seq = itertools.count(1)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._pending: dict[CommandId, asyncio.Future] = {}
        self._outbox: Optional[BatchAccumulator[Envelope]] = (
            BatchAccumulator(self._batching, self._write_group, LoopTimer())
            if self._batching is not None
            else None
        )
        self._drain_task: Optional[asyncio.Task] = None

    # -- connection management -----------------------------------------------------

    async def connect(self) -> None:
        if self._address is None or self._writer is not None:
            return
        host, _, port = self._address.rpartition(":")
        self._reader, self._writer = await asyncio.open_connection(host, int(port))
        self._dispatcher = asyncio.create_task(self._dispatch_responses())

    async def close(self) -> None:
        if self._outbox is not None:
            self._outbox.clear()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            self._dispatcher = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._reader = None
        self._fail_pending(ClientError("client closed"))

    async def __aenter__(self) -> "ReplicatedKVClient":
        await self.connect()
        return self

    async def __aexit__(self, *_exc: Any) -> None:
        await self.close()

    # -- key-value operations ---------------------------------------------------------

    async def put(self, key: str, value: bytes) -> Any:
        return await self._execute(encode_put(key, value))

    async def get(self, key: str) -> Any:
        return await self._execute(encode_get(key))

    async def delete(self, key: str) -> bool:
        return bool(await self._execute(encode_delete(key)))

    async def pipelined(
        self, operations: Sequence[Callable[[], Awaitable[Any]]], depth: int = 8
    ) -> list[Any]:
        """Run *operations* keeping up to *depth* of them in flight.

        Each operation is a zero-argument callable returning an awaitable
        (e.g. ``lambda: client.put(k, v)``).  Results come back in operation
        order.  This is the client half of message pipelining: the commit of
        operation *k* is never awaited before operation *k+1* is proposed.
        """
        if depth < 1:
            raise ClientError(f"pipeline depth must be >= 1, got {depth}")
        results: list[Any] = [None] * len(operations)
        in_flight: set[asyncio.Task] = set()

        async def run_one(index: int) -> None:
            results[index] = await operations[index]()

        try:
            for index in range(len(operations)):
                in_flight.add(asyncio.create_task(run_one(index)))
                if len(in_flight) >= depth:
                    done, in_flight = await asyncio.wait(
                        in_flight, return_when=asyncio.FIRST_COMPLETED
                    )
                    for task in done:
                        task.result()  # surface failures eagerly
            if in_flight:
                await asyncio.gather(*in_flight)
        except BaseException:
            # Don't leave siblings running unsupervised past the call: a
            # failed pipeline cancels (and awaits) everything in flight.
            for task in in_flight:
                task.cancel()
            await asyncio.gather(*in_flight, return_exceptions=True)
            raise
        return results

    # -- internals ----------------------------------------------------------------------

    async def _execute(self, payload: bytes) -> Any:
        command = Command(CommandId(self._name, next(self._seq)), payload)
        if self._server is not None:
            return await self._server.submit(command)
        return await self._execute_remote(command)

    async def _execute_remote(self, command: Command) -> Any:
        await self.connect()
        if self._reader is None or self._writer is None:
            raise ClientError("client is not connected")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[command.command_id] = future
        envelope = Envelope(-1, -1, ClientRequest(command))
        if self._outbox is None:
            self._writer.write(encode_frame(envelope, self._registry))
            await self._writer.drain()
        else:
            self._outbox.add(envelope)
        try:
            return await future
        finally:
            self._pending.pop(command.command_id, None)

    def _write_group(self, outbox: list[Envelope]) -> None:
        """One coalesced write for a flushed group of request frames."""
        if self._writer is None or self._writer.is_closing():
            return
        if len(outbox) == 1:
            frame = encode_frame(outbox[0], self._registry)
        else:
            frame = encode_batch_frame(EnvelopeBatch.of(outbox), self._registry)
        self._writer.write(frame)
        # Backpressure: await the drain once per burst (a sync flush callback
        # cannot await, so a single task follows the writes).
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.create_task(self._drain())

    async def _drain(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            try:
                await self._writer.drain()
            except (ConnectionResetError, OSError):
                pass  # the dispatcher reports connection loss to callers

    def _disconnect(self, error: Exception) -> None:
        """Drop the connection and fail everything in flight."""
        if self._outbox is not None:
            self._outbox.clear()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._reader = None
        self._dispatcher = None
        self._fail_pending(error)

    async def _dispatch_responses(self) -> None:
        """Match inbound responses to pending requests by command id."""
        assert self._reader is not None
        parser = FrameParser(self._registry)
        try:
            while data := await self._reader.read(READ_CHUNK_BYTES):
                for envelope in parser.feed(data):
                    response = envelope.message
                    if not isinstance(response, ClientResponse):
                        # Fail fast and force a reconnect: leaving the
                        # connection up with no reader would hang every
                        # later request forever.
                        self._disconnect(
                            ClientError(f"unexpected response {response!r}")
                        )
                        return
                    future = self._pending.get(response.command_id)
                    if future is not None and not future.done():
                        future.set_result(response.output)
        except OSError as exc:  # ConnectionResetError included
            self._disconnect(ClientError(f"connection lost: {exc!r}"))
        else:
            self._disconnect(ClientError("connection lost: the replica closed it"))

    def _fail_pending(self, error: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()


__all__ = ["ReplicatedKVClient"]
