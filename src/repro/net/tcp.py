"""Asyncio TCP transport with length-prefixed framing and batch envelopes.

The peer transport a :class:`~repro.runtime.server.ReplicaServer` is given
to run over real sockets: each ``proc`` backend worker
(:mod:`repro.launch.worker`) speaks it to its peers, and tests run whole
clusters of it on localhost in one process.

Framing: each frame is ``u32 big-endian length`` followed by a body in one
of two forms —

* **single**: the registry-encoded envelope payload
  ``{"src": int, "dst": int, "message": obj}`` (one protocol message);
* **batch**: a concatenated value stream (see
  :meth:`~repro.net.message.MessageRegistry.encode_many_into`) whose first value
  is the header ``{"src": int, "dst": int, "batch": n}`` followed by the
  ``n`` message values — one TCP write, one length prefix, ``n`` messages.

:class:`FrameParser` accepts both, so batched and unbatched peers
interoperate on the same socket.  It is the one reader of frames, and the
length prefix is checked against :data:`MAX_FRAME_BYTES` in one place, for
both directions.  A header that is not exactly one of the two above, or a
message that is not an instance of a registered class, is refused.

Hello: the first bytes of every outbound connection are
:func:`encode_hello` — a magic and the digest of the sender's message table
(:meth:`~repro.net.message.MessageRegistry.digest`), written with the first
frames, so no round trip is added.  The acceptor checks it before it reads
any frame and refuses another with a :class:`~repro.errors.TransportError`:
it writes its own hello back, so the sender logs the refusal too, and
closes the connection.  Nothing from a refused connection is dispatched.

:class:`TcpTransport` runs every peer connection as one
:class:`asyncio.BufferedProtocol`, in either direction.  The socket reads
into one reusable buffer per connection (:data:`READ_BUFFER_BYTES`), which
also receives the peer's hello; every complete frame is cut and decoded
in that buffer and dispatched in ``buffer_updated``, where the bytes arrive,
and a decoded message never aliases the buffer.  A flushed write unit is
encoded and handed to ``transport.write`` where it is flushed.  No task or
stream exists per frame or per connection; a task exists only while an
outbound connection is being set up.
"""

from __future__ import annotations

import asyncio
import logging
import struct
from typing import Any, Callable, Optional

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

#: Bytes of a connection's reusable read buffer.  On loopback the largest
#: read seen on a saturated three-replica cluster was 10.7 KiB (median
#: 5.8 KiB; 90 bytes with one small frame per message), so every read fits
#: six times over; 16 KiB and 256 KiB measured the same.  It stays below
#: glibc's 128 KiB mmap threshold, so the buffer's return to this size after
#: a larger frame comes from the heap.
READ_BUFFER_BYTES = 64 * 1024

#: Seconds a failed connect waits before its next attempt, times the
#: attempt's number (a process-mode worker's 40 retries span about 41 s).
CONNECT_BACKOFF_S = 0.05

_HELLO_MAGIC = b"RSMw"
#: Bytes in a hello: the magic, then the 16-byte message-table digest.
HELLO_BYTES = len(_HELLO_MAGIC) + 16


def encode_hello(registry: MessageRegistry) -> bytes:
    """The first bytes a connection carries: the wire and table its sender speaks."""
    return _HELLO_MAGIC + registry.digest()


_SINGLE_HEADER = frozenset(("src", "dst", "message"))
_BATCH_HEADER = frozenset(("src", "dst", "batch"))


def _checked_length(length: int) -> int:
    """*length* if a frame body may have it, else :class:`TransportError`."""
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame body of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
    return length


def _seal_frame(buf: bytearray) -> bytes:
    """Patch the reserved length prefix at the head of *buf* and freeze it.

    Frame fusion: the encoder appended the body straight after the 4
    reserved prefix bytes, so header and body leave as one buffer in one
    ``write()`` — no join of per-value parts, no prefix+body concatenation.
    """
    _LENGTH.pack_into(buf, 0, _checked_length(len(buf) - _LENGTH.size))
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

    Accepts any bytes-like *body*: the registry decoder copies a buffer that
    is not ``bytes`` once, so no decoded value aliases *body*.  The header
    must be exactly ``{src, dst, message}`` or ``{src, dst, batch}`` with
    int replica ids and, for a batch, an int count of at least one; every
    message must be an instance of a registered class.  Anything else
    raises :class:`~repro.errors.TransportError`.
    """
    values = registry.decode_many(body)
    if not values:
        raise TransportError("empty frame body")
    header = values[0]
    if type(header) is not dict:
        raise TransportError(f"frame header is a {type(header).__name__}, not a map")
    single = header.keys() == _SINGLE_HEADER
    if not single and header.keys() != _BATCH_HEADER:
        raise TransportError("frame header keys are not {src, dst, message} or {src, dst, batch}")
    src, dst = header["src"], header["dst"]
    if type(src) is not int or type(dst) is not int:
        raise TransportError(f"frame header names replicas {src!r} -> {dst!r}, not replica ids")
    if single:
        if len(values) != 1:
            raise TransportError("single-message frame carries trailing values")
        messages = [header["message"]]
        hint = len(body)
    else:
        count = header["batch"]
        if type(count) is not int or count < 1 or len(values) != count + 1:
            raise TransportError(
                f"batch frame announces {count!r} messages but carries {len(values) - 1}"
            )
        messages = values[1:]
        # The frame's bytes are shared work; attribute them evenly so the
        # size_hint stays meaningful per message.
        hint = len(body) // count
    is_registered = registry.is_registered
    for message in messages:
        if not is_registered(type(message)):
            raise TransportError(f"frame carries a {type(message).__name__}, not a registered message")
    return [Envelope(src, dst, message, hint) for message in messages]


class FrameParser:
    """Cuts a peer's byte stream into frames inside one reusable buffer.

    The reading half of :class:`asyncio.BufferedProtocol`: the socket reads
    into the free tail :meth:`get_buffer` hands out, and
    :meth:`buffer_updated` cuts every complete frame out of the buffer in
    place, decodes it, and passes its envelopes to *dispatch*, in stream
    order.  The stream's first :data:`HELLO_BYTES` are the peer's hello,
    checked before any frame is read.

    The buffer holds :data:`READ_BUFFER_BYTES`.  An incomplete frame stays
    where it is while the rest of it fits behind it, and otherwise moves to
    the front, once.  A length prefix announcing a frame larger than the
    buffer is checked against :data:`MAX_FRAME_BYTES` first; only then does
    the buffer grow to exactly that frame, and it returns to its base size
    once the frame is consumed.  A hello that is not this registry's, a
    prefix over the limit, or a body that does not decode raises
    :class:`~repro.errors.TransportError` (``CodecError`` included) as soon
    as it is met.
    """

    __slots__ = ("_registry", "_dispatch", "_hello", "_buf", "_view", "_pos", "_end")

    def __init__(self, registry: MessageRegistry, dispatch: Callable[[Envelope], None]) -> None:
        self._registry = registry
        self._dispatch = dispatch
        self._hello: Optional[bytes] = encode_hello(registry)  # expected, until the peer's is checked
        self._buf = bytearray(READ_BUFFER_BYTES)
        self._view = memoryview(self._buf)
        self._pos = 0  # the first byte not yet consumed
        self._end = 0  # the first free byte

    @property
    def greeted(self) -> bool:
        """Whether the peer's hello has arrived and is this registry's."""
        return self._hello is None

    def get_buffer(self) -> memoryview:
        """The free tail of the buffer, where the next read lands."""
        return self._view[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        """Take the *nbytes* just read into :meth:`get_buffer`'s tail."""
        buf = self._buf
        pos, end = self._pos, self._end + nbytes
        if self._hello is not None:
            if end < HELLO_BYTES:
                self._end = end
                return
            if buf[:HELLO_BYTES] != self._hello:
                raise TransportError(
                    f"its hello {bytes(buf[:HELLO_BYTES]).hex()} is not this replica's "
                    f"{self._hello.hex()}: another wire format or another message table"
                )
            self._hello = None
            pos = HELLO_BYTES
        view, registry, dispatch = self._view, self._registry, self._dispatch
        need = _LENGTH.size  # bytes the incomplete frame at pos needs in all
        while end - pos >= _LENGTH.size:
            start = pos + _LENGTH.size
            stop = start + _checked_length(_LENGTH.unpack_from(buf, pos)[0])
            if stop > end:
                need = stop - pos
                break
            pos = stop
            for envelope in decode_frame_envelopes(view[start:stop], registry):
                dispatch(envelope)
        if pos == end:
            self._pos = self._end = 0
            if len(buf) != READ_BUFFER_BYTES:
                self._install(bytearray(READ_BUFFER_BYTES))
            return
        self._keep(pos, end, need)

    def _keep(self, pos: int, end: int, need: int) -> None:
        """Keep the incomplete frame ``[pos, end)`` where all *need* bytes of it fit."""
        size = max(need, READ_BUFFER_BYTES)
        view = self._view
        if size != len(self._buf):
            buf = bytearray(size)
            buf[: end - pos] = view[pos:end]
            self._install(buf)
        elif pos + need > size:
            view[: end - pos] = view[pos:end]  # memoryview assignment may overlap
        else:
            self._pos, self._end = pos, end
            return
        self._pos, self._end = 0, end - pos

    def _install(self, buf: bytearray) -> None:
        # A new buffer, never a resized one: the read that called
        # buffer_updated may still hold a view of the old.
        self._buf = buf
        self._view = memoryview(buf)


class _Connection(asyncio.BufferedProtocol):
    """One peer connection of a :class:`TcpTransport`, either direction.

    Inbound, every complete frame is dispatched as it arrives.  Outbound
    (*dst* set), the connection becomes ``dst``'s write path the moment it is
    made: the hello and the frames that waited for it go out first, in send
    order, and every later flush writes straight to it.  Peers write back on
    an outbound connection only to refuse its hello; reading it anyway keeps
    the two directions one class: either way the peer's hello comes first.
    """

    def __init__(self, owner: "TcpTransport", dst: Optional[ReplicaId] = None) -> None:
        self._owner = owner
        self._dst = dst
        self._parser = FrameParser(owner._registry, owner._dispatch)
        self.transport: Optional[asyncio.Transport] = None
        self.lost: asyncio.Future = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.Transport) -> None:  # type: ignore[override]
        owner = self._owner
        self.transport = transport
        if owner._stopped:
            transport.abort()
            return
        owner._connections.add(self)
        if self._dst is not None:
            transport.writelines([encode_hello(owner._registry), *owner._waiting.pop(self._dst, ())])
            owner._peers[self._dst] = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._parser.get_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        parser = self._parser
        try:
            parser.buffer_updated(nbytes)
        except TransportError as exc:  # CodecError included
            peer = self.transport.get_extra_info("peername")
            if parser.greeted:
                _LOGGER.warning(
                    "replica %s: malformed frame from %s, closing the connection: %s",
                    self._owner.local_id, peer, exc,
                )  # fmt: skip
            else:
                if self._dst is None:  # an acceptor answers a bad hello with its own
                    self.transport.write(encode_hello(self._owner._registry))
                _LOGGER.warning("replica %s: refused the connection with %s: %s", self._owner.local_id, peer, exc)
            self.transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        owner = self._owner
        owner._connections.discard(self)
        if self._dst is not None and owner._peers.get(self._dst) is self.transport:
            del owner._peers[self._dst]
        _LOGGER.debug(
            "replica %s: connection %s closed: %s",
            owner.local_id, self.transport.get_extra_info("peername"), exc,
        )  # fmt: skip
        self.lost.set_result(None)


class TcpTransport(Transport):
    """A TCP transport endpoint for one replica.

    Maintains one outbound connection per peer (created lazily and re-created
    after it is lost) and accepts inbound connections from peers.  Incoming
    envelopes are handed to the registered handler on the event loop, as
    their frames arrive; the handler must be non-blocking (the sans-IO
    protocols are).

    With ``batching`` enabled, outbound envelopes are coalesced per peer:
    messages queued for the same destination within the accumulation window
    (``window_us = 0`` — the current event-loop tick) ship as framed
    multi-message envelopes of at most ``max_batch`` messages each, written
    in one ``write()`` call.  Message order per channel is preserved.

    Lifecycle: :meth:`close` is the replica host going away (a crash): what
    it queued and was not yet written is dropped, and the transport stays
    open for the next host (:meth:`~repro.runtime.server.ReplicaServer.restart`).
    :meth:`stop` ends the transport: every connection and the listener close
    at once, and sends are dropped until :meth:`start` is called again.
    """

    def __init__(
        self,
        local_id: ReplicaId,
        listen_address: str,
        peer_addresses: dict[ReplicaId, str],
        registry: Optional[MessageRegistry] = None,
        batching: Optional[BatchingOptions] = None,
        connect_retries: int = 0,
    ) -> None:
        super().__init__(local_id)
        self._listen_host, self._listen_port = _split_address(listen_address)
        self._peer_addresses = dict(peer_addresses)
        self._registry = registry or global_registry
        self._batching = batching if batching is not None and batching.enabled else None
        self._connect_retries = connect_retries
        self._server: Optional[asyncio.AbstractServer] = None
        #: connected peers' write paths
        self._peers: dict[ReplicaId, asyncio.Transport] = {}
        #: frames of a peer whose connection is being set up, in send order
        self._waiting: dict[ReplicaId, list[bytes]] = {}
        self._connecting: set[asyncio.Task] = set()
        self._connections: set[_Connection] = set()
        self._accumulators: dict[ReplicaId, BatchAccumulator[Envelope]] = {}
        self._timer = LoopTimer()
        self._early: list[Envelope] = []
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start listening for inbound peer connections (idempotent)."""
        if self._server is not None:
            return
        # Every connection opens with the digest of the whole message table;
        # computing it here imports what it covers before any run starts.
        self._registry.digest()
        self._stopped = False
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self._listen_host, self._listen_port
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
        """Close every connection and end every task this transport started.

        Frames not yet handed to the kernel are dropped: connections are
        aborted, not drained, so a peer that stopped reading cannot hold
        ``stop()`` up.
        """
        self._stopped = True
        self.close()
        if self._server is not None:
            self._server.close()
        connecting = list(self._connecting)
        for task in connecting:
            task.cancel()
        await asyncio.gather(*connecting, return_exceptions=True)
        connections = list(self._connections)
        for connection in connections:
            connection.transport.abort()
        await asyncio.gather(*(connection.lost for connection in connections))
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    def close(self) -> None:
        """Drop what the departing host queued and was not yet written.

        Connections, the listener and the handler slot stay: a restarted host
        sends and receives through this same transport.
        """
        for accumulator in self._accumulators.values():
            accumulator.clear()
        for frames in self._waiting.values():
            frames.clear()  # the connect under way still owns the slot

    # -- sending -------------------------------------------------------------
    #
    # Per-destination FIFO is a correctness requirement, not a nicety:
    # Clock-RSM's stability rule (LatestTV) assumes each replica's messages
    # arrive in non-decreasing clock-reading order, which holds iff the
    # channel preserves send order.  A destination is in exactly one of
    # three states — connected (``_peers``: write now), connecting
    # (``_waiting``: append), or neither (start a connect, append) — and the
    # switch from connecting to connected happens in one callback that
    # writes the waiting frames before it publishes the connection.  So no
    # frame can overtake one sent before it: not during setup, not right
    # after it, not across a reconnect.

    def send(self, envelope: Envelope) -> None:
        """Deliver a self-addressed envelope now; frame and write any other."""
        if envelope.dst == self.local_id:
            self._dispatch(envelope)
            return
        if self._batching is None:
            self._write(envelope.dst, [envelope])
            return
        accumulator = self._accumulators.get(envelope.dst)
        if accumulator is None:
            accumulator = BatchAccumulator(
                self._batching,
                lambda envelopes, dst=envelope.dst: self._write(dst, envelopes),
                self._timer,
            )
            self._accumulators[envelope.dst] = accumulator
        accumulator.add(envelope)

    def _write(self, dst: ReplicaId, envelopes: list[Envelope]) -> None:
        """Frame one write unit and write it to ``dst``, or queue it for the connect."""
        if self._stopped:
            return
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
            return
        peer = self._peers.get(dst)
        if peer is not None and not peer.is_closing():
            peer.write(frame)
            return
        waiting = self._waiting.get(dst)
        if waiting is not None:
            waiting.append(frame)
            return
        self._waiting[dst] = [frame]
        task = asyncio.get_running_loop().create_task(self._connect(dst))
        self._connecting.add(task)
        task.add_done_callback(self._connecting.discard)

    async def _connect(self, dst: ReplicaId) -> None:
        """Open ``dst``'s connection; on failure drop the frames that waited for it.

        Success is completed by :meth:`_Connection.connection_made`.
        """
        try:
            address = self._peer_addresses.get(dst)
            if address is None:
                raise TransportError(f"no address configured for replica {dst}")
            host, port = _split_address(address)
            loop = asyncio.get_running_loop()
            attempt = 0
            while True:
                try:
                    await loop.create_connection(lambda: _Connection(self, dst), host, port)
                    return
                except OSError:
                    # The peer may not be listening yet (process-mode replicas
                    # start concurrently); back off and retry within budget.
                    if attempt >= self._connect_retries or self._stopped:
                        raise
                    attempt += 1
                    await asyncio.sleep(CONNECT_BACKOFF_S * attempt)
        except (OSError, TransportError) as exc:
            dropped = self._waiting.pop(dst, [])
            _LOGGER.warning(
                "replica %s cannot reach %s, dropping %d queued writes: %s",
                self.local_id, dst, len(dropped), exc,
            )  # fmt: skip
        except asyncio.CancelledError:
            self._waiting.pop(dst, None)  # stop(): nothing waits for this connect any more
            raise

    # -- receiving -----------------------------------------------------------

    def _accept(self) -> _Connection:
        """The protocol of one accepted connection (the listener's factory)."""
        return _Connection(self)

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


def _split_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise TransportError(f"invalid address {address!r}, expected host:port")
    return host, int(port)


__all__ = [
    "TcpTransport",
    "FrameParser",
    "encode_frame",
    "encode_batch_frame",
    "decode_frame_envelopes",
    "encode_hello",
    "HELLO_BYTES",
    "MAX_FRAME_BYTES",
    "READ_BUFFER_BYTES",
]
