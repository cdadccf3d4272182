"""Single-decree consensus substrate.

The Clock-RSM reconfiguration protocol (Algorithm 3) is built on abstract
``PROPOSE(k, m)`` / ``DECIDE(k, m)`` primitives; the paper suggests
implementing them with Paxos.  This package provides a sans-IO single-decree
Paxos implementation (:class:`~repro.consensus.single_paxos.PaxosInstance`)
plus a small manager that multiplexes many instances (one per epoch) over a
replica's message stream.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".single_paxos": (
            "ConsensusDecision", "InstanceManager", "PaxosInstance", "PaxosLearn",
            "PaxosP1a", "PaxosP1b", "PaxosP2a", "PaxosP2b",
        ),
    },
)

__all__ = [
    "PaxosInstance",
    "InstanceManager",
    "ConsensusDecision",
    "PaxosP1a",
    "PaxosP1b",
    "PaxosP2a",
    "PaxosP2b",
    "PaxosLearn",
]
