"""Sans-IO replication protocol framework.

A :class:`Replica` is a pure state machine over protocol events: the driver
feeds it client requests, peer messages, and timer expirations; each call
returns a list of :class:`Action` values the driver must perform (send a
message, broadcast one, reply to a client, arm a timer).  Keeping I/O out of
the protocols makes every step unit-testable, lets the same code run under
the deterministic discrete-event simulator and the asyncio runtime, and
mirrors the event-driven architecture the paper's C++ implementation uses.
"""

from __future__ import annotations

import itertools
import logging
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Protocol, Union

from ..clocks.base import Clock, MonotonicTimestampSource
from ..config import ClusterSpec, ProtocolConfig
from ..errors import ProtocolError
from ..statemachine import StateMachine
from ..storage.log import CommandLog
from ..types import Command, CommandId, Micros, ReplicaId, Timestamp, majority
from .records import CommandBatch

_LOGGER = logging.getLogger(__name__)

#: Canonical protocol names used by the registry and the experiment
#: configuration files.
ProtocolName = str

CLOCK_RSM = "clock-rsm"
PAXOS = "paxos"
PAXOS_BCAST = "paxos-bcast"
MENCIUS = "mencius"
MENCIUS_BCAST = "mencius-bcast"


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Send:
    """Send *message* to replica *dst*."""

    dst: ReplicaId
    message: Any


@dataclass(frozen=True, slots=True)
class Broadcast:
    """Send *message* to every replica in the active configuration.

    ``include_self`` controls whether the sender also receives the message
    (via zero-delay loopback); Clock-RSM broadcasts PREPARE/PREPAREOK to
    every replica including itself, so it defaults to ``True``.
    """

    message: Any
    include_self: bool = True


@dataclass(frozen=True, slots=True)
class ClientReply:
    """Deliver the result of a committed command back to its client."""

    command_id: CommandId
    output: Any


@dataclass(frozen=True, slots=True)
class Timer:
    """A timer handle; returned to the protocol when the timer fires."""

    timer_id: int
    kind: str
    payload: Any = None


@dataclass(frozen=True, slots=True)
class SetTimer:
    """Ask the driver to fire *timer* after *delay* microseconds."""

    timer: Timer
    delay: Micros


Action = Union[Send, Broadcast, ClientReply, SetTimer]


class ReplicaObserver(Protocol):
    """Optional hook invoked when a replica executes a committed command."""

    def on_execute(
        self, replica_id: ReplicaId, command: Command, output: Any
    ) -> None:  # pragma: no cover - protocol definition
        ...


# ---------------------------------------------------------------------------
# Execution order
# ---------------------------------------------------------------------------


class ExecutionOrder:
    """The ids of the commands a replica executed, in execution order.

    Held as a client-name table plus two arrays — client index and seqno —
    rather than a list of :class:`~repro.types.CommandId` objects, so it
    adds nothing per command to what the cyclic collector walks.  Seqnos are
    signed 64-bit, the range the wire carries and submission enforces
    (:func:`~repro.types.check_seqno`).  Reading it builds the ids afresh:
    ``len``, iteration and indexing yield ``CommandId`` values, and it
    compares equal to a list of the same ids.
    """

    __slots__ = ("_names", "_index", "_clients", "_seqnos")

    def __init__(self) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._clients = array("i")
        self._seqnos = array("q")

    def add(self, commands: Iterable[Command]) -> None:
        """Record *commands* as executed next, in order."""
        index = self._index
        clients = self._clients
        seqnos = self._seqnos
        for command in commands:
            command_id = command.command_id
            client = index.get(command_id.client)
            if client is None:
                client = index[command_id.client] = len(self._names)
                self._names.append(command_id.client)
            clients.append(client)
            seqnos.append(command_id.seqno)

    def __len__(self) -> int:
        return len(self._seqnos)

    def __iter__(self) -> Iterator[CommandId]:
        return map(CommandId, map(self._names.__getitem__, self._clients), self._seqnos)

    def __getitem__(self, index: int) -> CommandId:
        return CommandId(self._names[self._clients[index]], self._seqnos[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ExecutionOrder, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ExecutionOrder({list(self)!r})"


# ---------------------------------------------------------------------------
# Replica base class
# ---------------------------------------------------------------------------


class Replica(ABC):
    """Base class of every replication protocol replica.

    Subclasses implement :meth:`on_client_request`, :meth:`on_message`, and
    :meth:`on_timer`; the base class provides timestamping, the execution
    path into the state machine, quorum arithmetic, and timer bookkeeping.
    """

    #: Protocol name, overridden by each implementation.
    protocol_name: ProtocolName = "abstract"

    def __init__(
        self,
        replica_id: ReplicaId,
        spec: ClusterSpec,
        *,
        clock: Clock,
        log: CommandLog,
        state_machine: StateMachine,
        config: Optional[ProtocolConfig] = None,
        observer: Optional[ReplicaObserver] = None,
        recover: bool = False,
    ) -> None:
        # ``recover`` asks the replica to rebuild soft state from its stable
        # log.  Clock-RSM intercepts it (paper Section V-B); protocols
        # without a replay procedure restart blank over the surviving log,
        # so the flag is accepted — and ignored — here.
        del recover
        if replica_id not in spec.replica_ids:
            raise ProtocolError(f"replica {replica_id} is not part of the spec {spec.replica_ids}")
        self.replica_id = replica_id
        self.spec = spec
        self.clock = clock
        self.log = log
        self.state_machine = state_machine
        self.config = config or ProtocolConfig()
        self.observer = observer
        self.active_config = spec.replica_ids
        #: Strictly monotonic timestamp source for this replica.
        self.ts_source = MonotonicTimestampSource(clock, replica_id)
        #: Commands executed so far, in execution order (used by tests and by
        #: the consistency checker).
        self.execution_order = ExecutionOrder()
        self._timer_ids = itertools.count(1)
        self._stopped = False

    # -- identity / quorum helpers ------------------------------------------

    @property
    def quorum_size(self) -> int:
        """Majority of the *specification*, as the paper requires."""
        return majority(self.spec.size)

    @property
    def active_config(self) -> tuple[ReplicaId, ...]:
        """Active configuration; starts as the full spec and is changed only
        by reconfiguration."""
        return self._active_config

    @active_config.setter
    def active_config(self, active: tuple[ReplicaId, ...]) -> None:
        self._active_config = active
        #: Active replicas other than this one (every broadcast's targets),
        #: rebuilt only when the configuration changes.
        self.others: tuple[ReplicaId, ...] = tuple(
            r for r in active if r != self.replica_id
        )

    @property
    def executed_count(self) -> int:
        return len(self.execution_order)

    def is_active(self, replica_id: ReplicaId) -> bool:
        return replica_id in self.active_config

    # -- driver-facing API ----------------------------------------------------

    def start(self) -> list[Action]:
        """Called once before any event is delivered; arms initial timers."""
        return []

    def stop(self) -> None:
        """Mark the replica as stopped; subsequent events are ignored."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        return self._stopped

    @abstractmethod
    def on_client_request(self, command: Command) -> list[Action]:
        """Handle a command submitted by a local client."""

    @abstractmethod
    def on_message(self, src: ReplicaId, message: Any) -> list[Action]:
        """Handle a protocol message from replica *src*."""

    @abstractmethod
    def on_timer(self, timer: Timer) -> list[Action]:
        """Handle the expiration of a timer previously set via :class:`SetTimer`."""

    # -- helpers for subclasses ----------------------------------------------

    def make_timer(self, kind: str, payload: Any = None) -> Timer:
        """Create a fresh timer handle with a unique id."""
        return Timer(next(self._timer_ids), kind, payload)

    def execute_unit(self, unit: Any) -> list[tuple[Command, Any]]:
        """Execute a committed unit (command or batch), constituent by
        constituent, returning ``(command, output)`` pairs in batch order.

        The execution order (and therefore the stable log replay, the
        consistency checker's apply orders, and observers) sees individual
        commands: a batch is an agreement-layer envelope, never an execution
        unit of its own.
        """
        commands = unit.commands if type(unit) is CommandBatch else (unit,)
        apply = self.state_machine.apply
        executed = [(command, apply(command)) for command in commands]
        self.execution_order.add(commands)
        if self.observer is not None:
            for command, output in executed:
                self.observer.on_execute(self.replica_id, command, output)
        return executed

    def broadcast_targets(self, include_self: bool) -> Iterable[ReplicaId]:
        if include_self:
            return self.active_config
        return self.others

    def describe(self) -> dict[str, Any]:
        """A small status snapshot used by logging and debugging tools."""
        return {
            "protocol": self.protocol_name,
            "replica_id": self.replica_id,
            "site": self.spec.replica(self.replica_id).site,
            "active_config": list(self.active_config),
            "executed": self.executed_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        site = self.spec.replica(self.replica_id).site
        return f"<{type(self).__name__} r{self.replica_id}@{site}>"


def expand_broadcast(replica: Replica, action: Broadcast) -> list[Send]:
    """Expand a :class:`Broadcast` into per-destination :class:`Send` actions.

    Drivers that have no native broadcast support (the TCP runtime) use this;
    the simulator keeps broadcasts intact so it can charge a single
    serialization cost and per-destination network delays.
    """
    return [
        Send(dst, action.message)
        for dst in replica.broadcast_targets(action.include_self)
    ]


__all__ = [
    "ProtocolName",
    "CLOCK_RSM",
    "PAXOS",
    "PAXOS_BCAST",
    "MENCIUS",
    "MENCIUS_BCAST",
    "Send",
    "Broadcast",
    "ClientReply",
    "Timer",
    "SetTimer",
    "Action",
    "ExecutionOrder",
    "Replica",
    "ReplicaObserver",
    "expand_broadcast",
]
