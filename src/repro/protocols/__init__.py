"""Replication protocols.

All protocols share the sans-IO :class:`~repro.protocols.base.Replica`
interface: the surrounding driver (simulator or asyncio runtime) feeds in
client requests, messages, and timer expirations, and executes the actions
(sends, broadcasts, client replies, timer registrations) each call returns.

Implemented protocols:

* :class:`~repro.core.protocol.ClockRsmReplica` — the paper's contribution
  (re-exported here for convenience).
* :class:`~repro.protocols.multipaxos.MultiPaxosReplica` — classic
  leader-based Multi-Paxos (phase 2 only, stable leader).
* :class:`~repro.protocols.paxos_bcast.PaxosBcastReplica` — Multi-Paxos with
  broadcast phase-2b messages (the paper's latency-optimized baseline).
* :class:`~repro.protocols.mencius.MenciusReplica` — rotating-coordinator
  Mencius with skip messages.
* :class:`~repro.protocols.mencius_bcast.MenciusBcastReplica` — Mencius with
  broadcast acknowledgements (the paper's latency-optimized baseline).
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".base": (
            "Action", "Broadcast", "ClientReply", "ProtocolName", "Replica", "Send",
            "SetTimer", "Timer",
        ),
        ".mencius": ("MenciusReplica",),
        ".mencius_bcast": ("MenciusBcastReplica",),
        ".multipaxos": ("MultiPaxosReplica",),
        ".paxos_bcast": ("PaxosBcastReplica",),
        ".registry": ("PROTOCOLS", "create_replica"),
    },
)

__all__ = [
    "Action",
    "Send",
    "Broadcast",
    "ClientReply",
    "SetTimer",
    "Timer",
    "Replica",
    "ProtocolName",
    "MultiPaxosReplica",
    "PaxosBcastReplica",
    "MenciusReplica",
    "MenciusBcastReplica",
    "PROTOCOLS",
    "create_replica",
]
