"""Workload generators matching the paper's experimental setup.

The latency experiments run 40 closed-loop clients per data center, each with
a uniformly random 0–80 ms think time and 64-byte update commands; the
throughput experiments saturate the replicas with enough outstanding
commands that the CPU becomes the bottleneck.  The generators here reproduce
both setups on top of a :class:`~repro.sim.cluster.SimulatedCluster`.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".generator": ("ClosedLoopClients", "SaturatingClients"),
    },
)

__all__ = ["ClosedLoopClients", "SaturatingClients"]
