"""Protocol registry: build any implemented protocol by name.

The experiment backends, the simulator cluster builder, and the asyncio server
all construct replicas through :func:`create_replica` so that experiment
configurations can name protocols with plain strings
(``"clock-rsm"``, ``"paxos"``, ``"paxos-bcast"``, ``"mencius"``,
``"mencius-bcast"``).

Each protocol additionally carries :class:`ProtocolCapabilities` metadata
(is it leader-based?  does its latency depend on clock quality?  is it a
broadcast variant?), which :mod:`repro.experiment` uses to validate
experiment specifications before anything is deployed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Type

from ..config import ClusterSpec
from ..errors import ConfigurationError
from ..types import ReplicaId
from .base import CLOCK_RSM, MENCIUS, MENCIUS_BCAST, PAXOS, PAXOS_BCAST, Replica
from .mencius import MenciusReplica
from .mencius_bcast import MenciusBcastReplica
from .multipaxos import MultiPaxosReplica
from .paxos_bcast import PaxosBcastReplica


@dataclass(frozen=True, slots=True)
class ProtocolCapabilities:
    """Static capability metadata of a replication protocol.

    Attributes:
        name: Canonical protocol name (registry key).
        leader_based: Whether ordering flows through a designated leader
            (Paxos variants).  Leaderless protocols ignore — and experiment
            specs must not set — a ``leader_site``.
        needs_clocks: Whether commit latency depends on physical clock
            quality (Clock-RSM); clock skew/drift scenarios only change the
            results of protocols with this capability.
        broadcast_variant: Whether replicas broadcast directly to all peers
            (the paper's "-bcast" message pattern) instead of relaying
            through a leader/owner, trading messages for latency.
        supports_reconfiguration: Whether the implementation handles
            SUSPEND/consensus reconfiguration (Algorithm 3), which fault
            schedules with ``rejoin`` recovery rely on.
        batching: Whether the replica accepts
            :class:`~repro.protocols.records.CommandBatch` units — one
            protocol round ordering many client commands.  Every shipped
            protocol inherits this from the sans-IO base class; specs with
            a ``[batching]`` table are validated against it.
    """

    name: str
    leader_based: bool
    needs_clocks: bool
    broadcast_variant: bool
    supports_reconfiguration: bool
    batching: bool = True


def _clock_rsm_class() -> Type[Replica]:
    # Imported lazily to keep repro.core and repro.protocols decoupled at
    # import time (repro.core depends on repro.protocols.base).
    from ..core.protocol import ClockRsmReplica

    return ClockRsmReplica


#: Mapping of protocol name to replica class (Clock-RSM resolved lazily).
PROTOCOLS: dict[str, Any] = {
    CLOCK_RSM: _clock_rsm_class,
    PAXOS: MultiPaxosReplica,
    PAXOS_BCAST: PaxosBcastReplica,
    MENCIUS: MenciusReplica,
    MENCIUS_BCAST: MenciusBcastReplica,
}

#: Capability metadata per protocol, keyed like :data:`PROTOCOLS`.
CAPABILITIES: dict[str, ProtocolCapabilities] = {
    CLOCK_RSM: ProtocolCapabilities(
        CLOCK_RSM,
        leader_based=False,
        needs_clocks=True,
        broadcast_variant=True,
        supports_reconfiguration=True,
    ),
    PAXOS: ProtocolCapabilities(
        PAXOS,
        leader_based=True,
        needs_clocks=False,
        broadcast_variant=False,
        supports_reconfiguration=False,
    ),
    PAXOS_BCAST: ProtocolCapabilities(
        PAXOS_BCAST,
        leader_based=True,
        needs_clocks=False,
        broadcast_variant=True,
        supports_reconfiguration=False,
    ),
    MENCIUS: ProtocolCapabilities(
        MENCIUS,
        leader_based=False,
        needs_clocks=False,
        broadcast_variant=False,
        supports_reconfiguration=False,
    ),
    MENCIUS_BCAST: ProtocolCapabilities(
        MENCIUS_BCAST,
        leader_based=False,
        needs_clocks=False,
        broadcast_variant=True,
        supports_reconfiguration=False,
    ),
}


def available_protocols() -> tuple[str, ...]:
    """All registered protocol names, sorted."""
    return tuple(sorted(PROTOCOLS))


def capability_rows() -> list[dict[str, str]]:
    """The capability table as rows of yes/"-" cells, sorted by protocol.

    Single source of truth for every rendering of the table: the
    ``repro protocols`` CLI subcommand prints exactly these rows, and the
    docs test checks the Markdown table in ``docs/PROTOCOLS.md`` against
    them, so the two cannot drift from the registry (or from each other).
    """
    yes = lambda flag: "yes" if flag else "-"
    return [
        {
            "protocol": caps.name,
            "leader_based": yes(caps.leader_based),
            "needs_clocks": yes(caps.needs_clocks),
            "broadcast": yes(caps.broadcast_variant),
            "reconfiguration": yes(caps.supports_reconfiguration),
            "batching": yes(caps.batching),
        }
        for _name, caps in sorted(CAPABILITIES.items())
    ]


def protocol_capabilities(name: str) -> ProtocolCapabilities:
    """Resolve a protocol name to its capability metadata."""
    caps = CAPABILITIES.get(name)
    if caps is None:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: {sorted(PROTOCOLS)}"
        )
    return caps


def protocol_class(name: str) -> Type[Replica]:
    """Resolve a protocol name to its replica class."""
    entry = PROTOCOLS.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: {sorted(PROTOCOLS)}"
        )
    if entry is _clock_rsm_class:
        return _clock_rsm_class()
    return entry


def create_replica(
    name: str, replica_id: ReplicaId, spec: ClusterSpec, **kwargs: Any
) -> Replica:
    """Instantiate a replica of protocol *name*.

    Keyword arguments are forwarded to the replica constructor (``clock``,
    ``log``, ``state_machine``, ``config``, ``observer``, ...).
    """
    cls = protocol_class(name)
    return cls(replica_id, spec, **kwargs)


__all__ = [
    "PROTOCOLS",
    "CAPABILITIES",
    "ProtocolCapabilities",
    "available_protocols",
    "capability_rows",
    "protocol_capabilities",
    "protocol_class",
    "create_replica",
]
