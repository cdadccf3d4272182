"""Core value types shared across the Clock-RSM reproduction.

All protocol-level times are expressed as **integer microseconds** so that
the discrete-event simulator, the asyncio runtime, and the protocols agree
on a single, exact representation.  Converting to milliseconds happens only
at the reporting layer (:mod:`repro.metrics`).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any

from .errors import ClientError

# ---------------------------------------------------------------------------
# Scalar aliases
# ---------------------------------------------------------------------------

#: Identifier of a replica.  Replica ids are small non-negative integers and
#: double as indices into vectors such as ``LatestTV``.
ReplicaId = int

#: Identifier of a client process.
ClientId = str

#: Microseconds since an arbitrary epoch (simulation start or wall clock).
Micros = int

MICROS_PER_MS = 1_000
MICROS_PER_SECOND = 1_000_000


def ms_to_micros(milliseconds: float) -> Micros:
    """Convert a duration in milliseconds to integer microseconds."""
    return int(round(milliseconds * MICROS_PER_MS))


def micros_to_ms(micros: Micros) -> float:
    """Convert integer microseconds to (float) milliseconds."""
    return micros / MICROS_PER_MS


def seconds_to_micros(seconds: float) -> Micros:
    """Convert a duration in seconds to integer microseconds."""
    return int(round(seconds * MICROS_PER_SECOND))


def micros_to_seconds(micros: Micros) -> float:
    """Convert integer microseconds to (float) seconds."""
    return micros / MICROS_PER_SECOND


# ---------------------------------------------------------------------------
# Timestamps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True, slots=True)
class Timestamp:
    """A Clock-RSM command timestamp.

    A timestamp is the pair ``(micros, replica)``: the physical clock reading
    of the originating replica, with ties broken by the originating replica's
    id, exactly as the paper specifies ("Ties are resolved by using the id of
    the command's originating replica").  The lexicographic dataclass ordering
    therefore yields the protocol's total order.
    """

    micros: Micros
    replica: ReplicaId

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.micros}@r{self.replica}"


#: The smallest possible timestamp; used as the initial value of LatestTV
#: entries and as a sentinel "nothing received yet" marker.
ZERO_TS = Timestamp(0, -1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_command_counter = itertools.count(1)


def next_command_uid() -> int:
    """Return a process-locally unique integer for command identifiers."""
    return next(_command_counter)


@dataclass(frozen=True, slots=True)
class CommandId:
    """Globally unique command identifier: (client, client-local sequence)."""

    client: ClientId
    seqno: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.client}:{self.seqno}"


@dataclass(frozen=True, slots=True)
class Command:
    """A state-machine command submitted by a client.

    The payload is opaque to every replication protocol: protocols order and
    replicate commands, the configured state machine interprets them.
    """

    command_id: CommandId
    payload: bytes
    created_at: Micros = 0

    @property
    def size(self) -> int:
        """Size of the payload in bytes (used by the throughput model)."""
        return len(self.payload)


@dataclass(frozen=True, slots=True)
class CommandResult:
    """The result of executing a command, returned to the issuing client."""

    command_id: CommandId
    output: Any
    committed_at: Micros = 0


def check_seqno(command_id: CommandId) -> None:
    """Refuse a command at submission if its seqno is outside signed 64 bits.

    That is the range the wire codec carries as a fixed-width integer and
    the range a replica's execution order stores; checked before agreement,
    because a replica could not record the command after it.
    """
    if not -(2**63) <= command_id.seqno < 2**63:
        raise ClientError(f"command {command_id} has a seqno outside signed 64 bits")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def majority(n: int) -> int:
    """Size of a majority quorum out of *n* replicas (``floor(n/2) + 1``)."""
    if n <= 0:
        raise ValueError(f"majority undefined for {n} replicas")
    return n // 2 + 1


def freeze(obj: Any) -> Any:
    """Recursively convert dataclasses to plain dicts for logging/debugging."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: freeze(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [freeze(x) for x in obj]
    if isinstance(obj, dict):
        return {k: freeze(v) for k, v in obj.items()}
    return obj


__all__ = [
    "ReplicaId",
    "ClientId",
    "Micros",
    "MICROS_PER_MS",
    "MICROS_PER_SECOND",
    "ms_to_micros",
    "micros_to_ms",
    "seconds_to_micros",
    "micros_to_seconds",
    "Timestamp",
    "ZERO_TS",
    "CommandId",
    "Command",
    "CommandResult",
    "check_seqno",
    "majority",
    "next_command_uid",
    "freeze",
]
