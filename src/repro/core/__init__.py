"""Clock-RSM: the paper's replication protocol.

* :mod:`repro.core.messages` — PREPARE / PREPAREOK / CLOCKTIME messages, log
  records, and reconfiguration messages.
* :mod:`repro.core.state` — the soft state of Algorithm 1 (``PendingCmds``,
  ``LatestTV``, ``RepCounter``) and the commit rule.
* :mod:`repro.core.protocol` — :class:`ClockRsmReplica`, implementing
  Algorithm 1 plus the Algorithm 2 CLOCKTIME extension.
* :mod:`repro.core.reconfig` — the Algorithm 3 reconfiguration protocol.
* :mod:`repro.core.recovery` — log replay and reintegration.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".messages": (
            "ClockTime", "CommitRecord", "Prepare", "PrepareOk", "PrepareRecord",
            "RetrieveCmds", "RetrieveReply", "Suspend", "SuspendOk",
        ),
        ".protocol": ("ClockRsmReplica",),
        ".recovery": ("RecoveredState", "replay_log"),
        ".state": ("ClockRsmState", "CommitStatus", "PendingCommand"),
    },
)

__all__ = [
    "Prepare",
    "PrepareOk",
    "ClockTime",
    "PrepareRecord",
    "CommitRecord",
    "Suspend",
    "SuspendOk",
    "RetrieveCmds",
    "RetrieveReply",
    "ClockRsmReplica",
    "ClockRsmState",
    "PendingCommand",
    "CommitStatus",
    "replay_log",
    "RecoveredState",
]
