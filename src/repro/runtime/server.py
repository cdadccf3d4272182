"""A replica server: protocol replica + peer transport + client endpoint.

The server exposes an ``async submit(command)`` API used by in-process
clients (:class:`~repro.runtime.local.LocalAsyncCluster`) and, when given a
client listen address, a TCP endpoint speaking length-prefixed
:class:`~repro.runtime.messages.ClientRequest` / ``ClientResponse`` frames
for remote clients (:class:`~repro.runtime.client.ReplicatedKVClient`).
"""

from __future__ import annotations

import asyncio
import heapq
import logging
from typing import Any, Optional

from ..clocks.base import Clock
from ..clocks.physical import SystemClock
from ..config import BatchingOptions, ClusterSpec, ProtocolConfig
from ..errors import RequestTimeout, TransportError
from ..net.message import Envelope, MessageRegistry, global_registry
from ..net.tcp import READ_CHUNK_BYTES, FrameParser, TcpTransport, encode_frame
from ..protocols.registry import create_replica
from ..statemachine import StateMachine
from ..storage.log import CommandLog
from ..storage.memory_log import InMemoryLog
from ..types import Command, CommandId, ReplicaId, check_seqno
from .driver import AsyncReplicaDriver
from .messages import ClientRequest, ClientResponse

_LOGGER = logging.getLogger(__name__)


class ReplicaServer:
    """One running replica of the replicated service."""

    def __init__(
        self,
        protocol: str,
        replica_id: ReplicaId,
        spec: ClusterSpec,
        state_machine: StateMachine,
        *,
        transport=None,
        peer_addresses: Optional[dict[ReplicaId, str]] = None,
        listen_address: Optional[str] = None,
        client_address: Optional[str] = None,
        log: Optional[CommandLog] = None,
        protocol_config: Optional[ProtocolConfig] = None,
        registry: Optional[MessageRegistry] = None,
        clock: Optional[Clock] = None,
        batching: Optional[BatchingOptions] = None,
    ) -> None:
        self.replica_id = replica_id
        self.spec = spec
        self.protocol = protocol
        self.protocol_config = protocol_config
        self.registry = registry or global_registry
        self.client_address = client_address
        self.batching = batching
        self._client_server: Optional[asyncio.AbstractServer] = None
        self._client_tasks: set[asyncio.Task] = set()
        self._pending: dict[CommandId, asyncio.Future] = {}
        # Deadline heap for submit timeouts: one event-loop timer armed for
        # the earliest deadline instead of one ``call_later`` handle per
        # command (see :meth:`submit`).  Entries are lazily discarded — a
        # command that committed stays in the heap until its deadline passes
        # or a compaction sweep drops it.
        self._deadlines: list[tuple[float, int, CommandId, float]] = []
        self._deadline_seq = 0
        self._expiry_handle: Optional[asyncio.TimerHandle] = None
        self._expiry_when = 0.0

        if transport is None:
            if listen_address is None or peer_addresses is None:
                raise TransportError(
                    "either a transport or listen_address + peer_addresses is required"
                )
            transport = TcpTransport(
                replica_id, listen_address, peer_addresses, self.registry,
                batching=batching,
            )
        self.transport = transport

        replica = create_replica(
            protocol,
            replica_id,
            spec,
            clock=clock if clock is not None else SystemClock(),
            log=log if log is not None else InMemoryLog(),
            state_machine=state_machine,
            config=protocol_config or ProtocolConfig(),
        )
        self.replica = replica
        self.driver = AsyncReplicaDriver(
            replica, transport, on_reply=self._on_reply, batching=batching
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if isinstance(self.transport, TcpTransport):
            await self.transport.start()
        if self.client_address is not None:
            host, _, port = self.client_address.rpartition(":")
            self._client_server = await asyncio.start_server(
                self._handle_client, host, int(port)
            )
        self.driver.start()
        _LOGGER.info("replica %s (%s) started", self.replica_id, self.replica.protocol_name)

    @property
    def bound_client_address(self) -> str:
        """The client listener's actual address (resolves a port 0 request)."""
        if self._client_server is None or not self._client_server.sockets:
            raise TransportError(f"replica {self.replica_id} has no client listener running")
        host, _, _ = self.client_address.rpartition(":")
        return f"{host}:{self._client_server.sockets[0].getsockname()[1]}"

    def crash(self) -> None:
        """Stop the replica abruptly: soft state is lost, the log survives.

        Pending client futures are left unresolved (their submitters time
        out), mirroring a process crash.  Use :meth:`restart` to bring the
        replica back from its stable log.
        """
        self.driver.stop()

    def restart(self, state_machine: StateMachine) -> None:
        """Recover the crashed replica from its surviving log and restart it.

        A fresh protocol replica replays the stable log into *state_machine*
        (for protocols implementing recovery) and takes over the transport;
        commands that commit after the restart still resolve their original
        pending futures.
        """
        replica = create_replica(
            self.protocol,
            self.replica_id,
            self.spec,
            clock=self.replica.clock,
            log=self.replica.log,
            state_machine=state_machine,
            config=self.protocol_config or ProtocolConfig(),
            recover=True,
        )
        self.replica = replica
        self.driver = AsyncReplicaDriver(
            replica, self.transport, on_reply=self._on_reply, batching=self.batching
        )
        self.driver.start()

    async def stop(self) -> None:
        self.driver.stop()
        for task in list(self._client_tasks):
            task.cancel()
        self._client_tasks.clear()
        if self._client_server is not None:
            self._client_server.close()
            await self._client_server.wait_closed()
            self._client_server = None
        if isinstance(self.transport, TcpTransport):
            await self.transport.stop()
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()
        if self._expiry_handle is not None:
            self._expiry_handle.cancel()
            self._expiry_handle = None
        self._deadlines.clear()

    # ------------------------------------------------------------------
    # Command submission
    # ------------------------------------------------------------------

    async def submit(self, command: Command, timeout: float = 30.0) -> Any:
        """Submit a command and wait for its committed result.

        Timeouts reject the still-pending future with
        :class:`~repro.errors.RequestTimeout` rather than going through
        ``asyncio.wait_for``: ``wait_for`` spends an extra task plus
        cancellation plumbing on every call, which profiling showed was the
        single largest per-command cost under a saturating workload.  And
        instead of one ``call_later`` handle per command, deadlines go on a
        heap served by a single timer armed for the earliest one — firing
        times are identical, but the per-command cost drops to a
        ``heappush``.  Committed commands leave their heap entry behind; it
        is skipped when due (no longer pending) or dropped by compaction.

        Raises :class:`~repro.errors.ClientError` for a seqno outside signed
        64 bits, before the command reaches the replica.
        """
        command_id = command.command_id
        check_seqno(command_id)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[command_id] = future
        self.driver.submit(command)
        deadlines = self._deadlines
        if len(deadlines) > 256 and len(deadlines) > 8 * len(self._pending):
            self._compact_deadlines()
        deadline = loop.time() + timeout
        self._deadline_seq += 1
        heapq.heappush(deadlines, (deadline, self._deadline_seq, command_id, timeout))
        if self._expiry_handle is None or deadline < self._expiry_when:
            if self._expiry_handle is not None:
                self._expiry_handle.cancel()
            self._expiry_when = deadline
            self._expiry_handle = loop.call_at(deadline, self._expire_due)
        try:
            return await future
        finally:
            self._pending.pop(command_id, None)

    def _expire_due(self) -> None:
        """Time out every pending command whose deadline has passed, re-arm."""
        self._expiry_handle = None
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadlines = self._deadlines
        pending = self._pending
        while deadlines and deadlines[0][0] <= now:
            _, _, command_id, timeout = heapq.heappop(deadlines)
            future = pending.get(command_id)
            if future is not None and not future.done():
                future.set_exception(
                    RequestTimeout(
                        f"command {command_id} did not commit within {timeout} s"
                    )
                )
        if deadlines:
            self._expiry_when = deadlines[0][0]
            self._expiry_handle = loop.call_at(self._expiry_when, self._expire_due)

    def _compact_deadlines(self) -> None:
        """Drop heap entries whose commands already settled (lazy deletion).

        Bounds heap memory under sustained throughput with long timeouts:
        without compaction a 30 s timeout at tens of kops would accumulate
        hundreds of thousands of dead entries before any deadline fires.
        """
        pending = self._pending
        self._deadlines = [e for e in self._deadlines if e[2] in pending]
        heapq.heapify(self._deadlines)

    def _on_reply(self, command_id: CommandId, output: Any) -> None:
        future = self._pending.get(command_id)
        if future is not None and not future.done():
            future.set_result(output)

    # ------------------------------------------------------------------
    # Client TCP endpoint
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection, pipelined.

        Requests are submitted as they arrive — the reader never waits for an
        earlier command to commit — so a pipelining client
        (:class:`~repro.runtime.client.ReplicatedKVClient` with
        ``pipeline_depth > 1``) keeps several commands in flight on one
        connection.  Responses are written as commands commit and are matched
        by command id on the client side, so completion order is free to
        differ from submission order.  Batch frames (several requests in one
        length-prefixed envelope) are accepted transparently.
        """
        peer = writer.get_extra_info("peername")
        _LOGGER.debug("client %s connected to replica %s", peer, self.replica_id)

        async def respond(request: ClientRequest) -> None:
            # Fail fast on any submission error, as the pre-pipelining
            # endpoint did by letting exceptions tear down the connection: a
            # silently dropped response would leave the remote client
            # awaiting a reply that can never come.
            try:
                output = await self.submit(request.command)
                response = ClientResponse(request.command.command_id, output)
                if writer.is_closing():
                    return
                writer.write(
                    encode_frame(Envelope(self.replica_id, -1, response), self.registry)
                )
                await writer.drain()
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                _LOGGER.warning(
                    "replica %s dropping client connection %s: %s",
                    self.replica_id,
                    peer,
                    exc,
                )
                writer.close()

        parser = FrameParser(self.registry)
        try:
            while data := await reader.read(READ_CHUNK_BYTES):
                for envelope in parser.feed(data):
                    request = envelope.message
                    if not isinstance(request, ClientRequest):
                        _LOGGER.warning(
                            "replica %s got a non-request frame from %s",
                            self.replica_id,
                            peer,
                        )
                        continue
                    task = asyncio.create_task(respond(request))
                    self._client_tasks.add(task)
                    task.add_done_callback(self._client_tasks.discard)
        except ConnectionResetError:
            pass  # a reset ends the connection as EOF does
        finally:
            writer.close()
        _LOGGER.debug("client %s disconnected from replica %s", peer, self.replica_id)


__all__ = ["ReplicaServer"]
