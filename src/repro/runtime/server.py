"""A replica server: protocol replica + peer transport + submit API.

Clients sit next to their replica, as in the paper's deployment: they call
``async submit(command)`` in the replica's own process
(:class:`~repro.workload.live.LiveClients`,
:class:`~repro.runtime.client.ReplicatedKVClient`).  The peer transport is
whatever the caller passes — a :class:`~repro.net.tcp.TcpTransport` between
processes, or the in-loop link model of
:class:`~repro.runtime.local.LocalAsyncCluster`.
"""

from __future__ import annotations

import asyncio
import heapq
import logging
from typing import Any, Optional

from ..clocks.base import Clock
from ..clocks.physical import SystemClock
from ..config import BatchingOptions, ClusterSpec, ProtocolConfig
from ..errors import RequestTimeout
from ..net.message import MessageRegistry, global_registry
from ..protocols.registry import create_replica
from ..statemachine import StateMachine
from ..storage.memory_log import InMemoryLog
from ..types import Command, CommandId, ReplicaId, check_seqno
from .driver import AsyncReplicaDriver

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
        transport,
        log: Optional[InMemoryLog] = None,
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
        self.batching = batching
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
        await self.transport.start()
        self.driver.start()
        _LOGGER.info("replica %s (%s) started", self.replica_id, self.replica.protocol_name)

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


__all__ = ["ReplicaServer"]
