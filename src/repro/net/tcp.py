"""Asyncio TCP transport with length-prefixed framing and batch envelopes.

Used by :mod:`repro.runtime.server` to run a real replicated key-value store
on a set of sockets (the examples run all replicas in one process on
localhost; the same code works across machines).

Framing: each frame is ``u32 big-endian length`` followed by a body in one
of two forms —

* **single**: the registry-encoded envelope payload
  ``{"src": int, "dst": int, "message": obj}`` (one protocol message);
* **batch**: a concatenated value stream (see
  :meth:`~repro.net.message.MessageRegistry.encode_many`) whose first value
  is the header ``{"src": int, "dst": int, "batch": n}`` followed by the
  ``n`` message values — one TCP write, one length prefix, ``n`` messages.

:func:`read_envelopes` accepts both, so batched and unbatched peers
interoperate on the same socket.
"""

from __future__ import annotations

import asyncio
import logging
import struct
from collections import deque
from typing import Any, Optional

from ..config import BatchingOptions
from ..errors import TransportError
from ..sim.scheduler import LoopTimer
from ..types import ReplicaId
from .batching import BatchAccumulator
from .message import Envelope, EnvelopeBatch, MessageRegistry, global_registry
from .transport import Transport

_LOGGER = logging.getLogger(__name__)
_LENGTH = struct.Struct(">I")

#: Upper bound on a single frame; protects against corrupted length prefixes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def _seal_frame(buf: bytearray) -> bytes:
    """Patch the reserved length prefix at the head of *buf* and freeze it.

    Frame fusion: the encoder appended the body straight after the 4
    reserved prefix bytes, so header and body leave as one buffer in one
    ``write()`` — no join of per-value parts, no prefix+body concatenation.
    """
    body_len = len(buf) - _LENGTH.size
    if body_len > MAX_FRAME_BYTES:
        raise TransportError(f"frame too large: {body_len} bytes")
    _LENGTH.pack_into(buf, 0, body_len)
    return bytes(buf)


def encode_frame(envelope: Envelope, registry: MessageRegistry) -> bytes:
    """Serialize an envelope into a length-prefixed single-message frame."""
    buf = bytearray(_LENGTH.size)
    registry.encode_into(
        buf, {"src": envelope.src, "dst": envelope.dst, "message": envelope.message}
    )
    return _seal_frame(buf)


def encode_batch_frame(batch: EnvelopeBatch, registry: MessageRegistry) -> bytes:
    """Serialize a multi-message envelope into one length-prefixed frame."""
    buf = bytearray(_LENGTH.size)
    header = {"src": batch.src, "dst": batch.dst, "batch": len(batch.messages)}
    registry.encode_into(buf, header)
    registry.encode_many_into(buf, batch.messages)
    return _seal_frame(buf)


def decode_frame_envelopes(body: Any, registry: MessageRegistry) -> list[Envelope]:
    """Deserialize a frame body of either form into its envelopes, in order.

    Accepts any bytes-like *body*; the registry decoder reads ``bytes`` (what
    a stream reader returns) in place, so envelope batches are decoded
    straight from the received buffer with only the string/bytes leaves
    materialized.
    """
    values = registry.decode_many(body)
    if not values:
        raise TransportError("empty frame body")
    header = values[0]
    if not isinstance(header, dict) or not {"src", "dst"} <= header.keys():
        raise TransportError("malformed frame body")
    if "message" in header:
        if len(values) != 1:
            raise TransportError("single-message frame carries trailing values")
        return [
            Envelope(
                src=header["src"],
                dst=header["dst"],
                message=header["message"],
                size_hint=len(body),
            )
        ]
    count = header.get("batch")
    if not isinstance(count, int) or count < 1 or len(values) != count + 1:
        raise TransportError(
            f"batch frame announces {count!r} messages but carries {len(values) - 1}"
        )
    # The frame's bytes are shared work; attribute them evenly so the
    # size_hint stays meaningful per message.
    hint = len(body) // count
    return [
        Envelope(src=header["src"], dst=header["dst"], message=message, size_hint=hint)
        for message in values[1:]
    ]


async def read_envelopes(
    reader: asyncio.StreamReader, registry: MessageRegistry
) -> list[Envelope]:
    """Read one frame of either form and return its envelopes, in order.

    ``readexactly`` reassembles partial reads, so a batch frame split across
    arbitrarily many TCP segments decodes identically to one delivered whole.
    """
    header = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame length {length} exceeds limit")
    body = await reader.readexactly(length)
    return decode_frame_envelopes(body, registry)


class TcpTransport(Transport):
    """A TCP transport endpoint for one replica.

    Maintains one outbound connection per peer (created lazily and re-created
    on failure) and accepts inbound connections from peers and clients.
    Incoming envelopes are handed to the registered handler on the event
    loop; the handler must be non-blocking (the sans-IO protocols are).

    With ``batching`` enabled, outbound envelopes are coalesced per peer:
    messages queued for the same destination within the accumulation window
    (``window_us = 0`` — the current event-loop tick) ship as framed
    multi-message envelopes of at most ``max_batch`` messages each, written
    in one ``write()`` call.  Message order per channel is preserved.
    """

    def __init__(
        self,
        local_id: ReplicaId,
        listen_address: str,
        peer_addresses: dict[ReplicaId, str],
        registry: Optional[MessageRegistry] = None,
        batching: Optional[BatchingOptions] = None,
        connect_retries: int = 0,
        connect_backoff_s: float = 0.05,
    ) -> None:
        super().__init__(local_id)
        self._listen_host, self._listen_port = _split_address(listen_address)
        self._peer_addresses = dict(peer_addresses)
        self._registry = registry or global_registry
        self._batching = batching if batching is not None and batching.enabled else None
        self._connect_retries = connect_retries
        self._connect_backoff_s = connect_backoff_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: dict[ReplicaId, asyncio.StreamWriter] = {}
        self._connect_locks: dict[ReplicaId, asyncio.Lock] = {}
        self._outbound: dict[ReplicaId, deque[list[Envelope]]] = {}
        self._senders: dict[ReplicaId, asyncio.Task] = {}
        self._inbound: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._accumulators: dict[ReplicaId, BatchAccumulator[Envelope]] = {}
        self._timer = LoopTimer()
        self._early: list[Envelope] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start listening for inbound peer connections (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle_connection, self._listen_host, self._listen_port
        )
        _LOGGER.info("replica %s listening on %s:%s", self.local_id, self._listen_host, self._listen_port)

    @property
    def bound_address(self) -> str:
        """The actual listen address (resolves an ephemeral port 0 request)."""
        if self._server is None or not self._server.sockets:
            raise TransportError(f"replica {self.local_id} transport not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        # Report the configured host: a wildcard bind keeps its request name.
        return f"{self._listen_host}:{port}"

    def set_peers(self, peer_addresses: dict[ReplicaId, str]) -> None:
        """Install or update peer addresses (used once ephemeral ports are known)."""
        self._peer_addresses.update(peer_addresses)

    async def stop(self) -> None:
        """Close every connection and end every task this transport started."""
        self._closed = True
        for accumulator in self._accumulators.values():
            accumulator.clear()
        senders = list(self._senders.values())
        for task in senders:
            task.cancel()
        self._senders.clear()
        self._outbound.clear()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        if self._server is not None:
            self._server.close()
        # Closing an accepted connection ends its handler at the next read
        # (EOF), so the handlers are awaited, not cancelled.
        for writer in self._inbound.values():
            writer.close()
        await asyncio.gather(*senders, *self._inbound, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    def close(self) -> None:
        self._closed = True
        for accumulator in self._accumulators.values():
            accumulator.clear()

    # -- sending -------------------------------------------------------------
    #
    # Per-destination FIFO is a correctness requirement, not a nicety:
    # Clock-RSM's stability rule (LatestTV) assumes each replica's messages
    # arrive in non-decreasing clock-reading order, which holds iff the
    # channel preserves send order.  A task-per-envelope design breaks this
    # while a connection is being established — sends issued during the
    # connect park on the lock and are woken one by one, while sends issued
    # just after it completes find the cached writer and write immediately,
    # jumping the queue.  So every destination gets one outbound queue
    # drained by a single sender task: order is preserved by construction,
    # through connection setup, retries, and reconnects alike.

    def send(self, envelope: Envelope) -> None:
        """Queue an envelope; the actual write happens on the sender task."""
        if envelope.dst == self.local_id:
            self._dispatch(envelope)
            return
        if self._batching is None:
            self._enqueue(envelope.dst, [envelope])
            return
        accumulator = self._accumulators.get(envelope.dst)
        if accumulator is None:
            accumulator = BatchAccumulator(
                self._batching,
                lambda envelopes, dst=envelope.dst: self._enqueue(dst, envelopes),
                self._timer,
            )
            self._accumulators[envelope.dst] = accumulator
        accumulator.add(envelope)

    def _enqueue(self, dst: ReplicaId, envelopes: list[Envelope]) -> None:
        """Append a write unit to ``dst``'s queue and ensure its drainer runs."""
        if self._closed:
            return
        self._outbound.setdefault(dst, deque()).append(envelopes)
        task = self._senders.get(dst)
        if task is None or task.done():
            self._senders[dst] = asyncio.get_running_loop().create_task(
                self._drain_outbound(dst)
            )

    async def _drain_outbound(self, dst: ReplicaId) -> None:
        """Write ``dst``'s queued units in order; exits when the queue drains."""
        queue = self._outbound[dst]
        while queue and not self._closed:
            try:
                writer = await self._writer_for(dst)
            except (OSError, TransportError) as exc:
                _LOGGER.warning(
                    "replica %s cannot reach %s, dropping %d queued writes: %s",
                    self.local_id,
                    dst,
                    len(queue),
                    exc,
                )
                queue.clear()
                return
            envelopes = queue.popleft()
            try:
                if len(envelopes) == 1:
                    frame = encode_frame(envelopes[0], self._registry)
                else:
                    frame = encode_batch_frame(EnvelopeBatch.of(envelopes), self._registry)
            except TransportError as exc:  # CodecError included: this unit alone is lost
                _LOGGER.warning(
                    "replica %s cannot frame %d message(s) for %s, dropping them: %s",
                    self.local_id, len(envelopes), dst, exc,
                )  # fmt: skip
                continue
            try:
                writer.write(frame)
                await writer.drain()
            except (OSError, TransportError, asyncio.IncompleteReadError) as exc:
                _LOGGER.warning(
                    "replica %s failed to send %d message(s) to %s: %s",
                    self.local_id,
                    len(envelopes),
                    dst,
                    exc,
                )
                self._writers.pop(dst, None)

    async def _writer_for(self, dst: ReplicaId) -> asyncio.StreamWriter:
        writer = self._writers.get(dst)
        if writer is not None and not writer.is_closing():
            return writer
        # One connection attempt per destination at a time: without the lock,
        # two concurrent sends each open a connection and the loser's writer
        # leaks (the peer then sees a duplicate inbound connection).
        lock = self._connect_locks.setdefault(dst, asyncio.Lock())
        async with lock:
            writer = self._writers.get(dst)
            if writer is not None and not writer.is_closing():
                return writer
            address = self._peer_addresses.get(dst)
            if address is None:
                raise TransportError(f"no address configured for replica {dst}")
            host, port = _split_address(address)
            attempt = 0
            while True:
                try:
                    _, writer = await asyncio.open_connection(host, port)
                    break
                except OSError:
                    # The peer may not be listening yet (process-mode replicas
                    # start concurrently); back off and retry within budget.
                    if attempt >= self._connect_retries or self._closed:
                        raise
                    attempt += 1
                    await asyncio.sleep(self._connect_backoff_s * attempt)
            self._writers[dst] = writer
            return writer

    # -- receiving -----------------------------------------------------------

    def set_handler(self, handler) -> None:
        super().set_handler(handler)
        early, self._early = self._early, []
        for envelope in early:
            handler(envelope)

    def _dispatch(self, envelope: Envelope) -> None:
        # A peer can connect and speak before this replica's protocol handler
        # is wired up (process-mode replicas start concurrently); buffer such
        # envelopes instead of raising, and flush them on set_handler.
        if self._handler is None:
            self._early.append(envelope)
            return
        self._handler(envelope)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        task = asyncio.current_task()
        self._inbound[task] = writer
        try:
            while not self._closed:
                try:
                    envelopes = await read_envelopes(reader, self._registry)
                except TransportError as exc:  # CodecError included
                    _LOGGER.warning(
                        "replica %s: malformed frame from %s, closing the connection: %s",
                        self.local_id,
                        peer,
                        exc,
                    )
                    return
                for envelope in envelopes:
                    self._dispatch(envelope)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            _LOGGER.debug("replica %s: connection from %s closed", self.local_id, peer)
        except asyncio.CancelledError:
            # Not re-raised: this task belongs to asyncio's stream server,
            # whose done-callback reads ``task.exception()`` and so reports a
            # cancelled handler to the loop's exception handler (CPython 3.11).
            # Nothing follows but closing the connection.
            pass
        finally:
            del self._inbound[task]
            writer.close()


def _split_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise TransportError(f"invalid address {address!r}, expected host:port")
    return host, int(port)


__all__ = [
    "TcpTransport",
    "encode_frame",
    "encode_batch_frame",
    "decode_frame_envelopes",
    "read_envelopes",
    "MAX_FRAME_BYTES",
]
