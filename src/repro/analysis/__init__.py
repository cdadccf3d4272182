"""Analytical latency model (the paper's Section IV and Table II).

* :mod:`repro.analysis.ec2` — the EC2 round-trip measurements of Table III.
* :mod:`repro.analysis.latency_model` — closed-form commit latency of
  Clock-RSM, Paxos, Paxos-bcast and Mencius-bcast for an arbitrary one-way
  latency matrix.
* :mod:`repro.analysis.comparison` — the numerical comparison over every
  3/5/7-replica EC2 placement (Figure 7 and Table IV).
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".comparison": (
            "GroupComparison", "ReductionSummary", "aggregate_reduction",
            "average_latency_by_group_size", "compare_group", "enumerate_groups",
        ),
        ".ec2": ("EC2_RTT_MS", "EC2_SITES", "ec2_latency_matrix"),
        ".latency_model": (
            "clock_rsm_balanced", "clock_rsm_imbalanced", "clock_rsm_light_imbalanced",
            "max_delay", "median_delay", "mencius_bcast_balanced_bounds",
            "mencius_bcast_imbalanced", "paxos_bcast_latency", "paxos_latency",
            "protocol_latency",
        ),
    },
)

__all__ = [
    "EC2_SITES",
    "EC2_RTT_MS",
    "ec2_latency_matrix",
    "median_delay",
    "max_delay",
    "clock_rsm_balanced",
    "clock_rsm_imbalanced",
    "clock_rsm_light_imbalanced",
    "paxos_latency",
    "paxos_bcast_latency",
    "mencius_bcast_imbalanced",
    "mencius_bcast_balanced_bounds",
    "protocol_latency",
    "enumerate_groups",
    "compare_group",
    "GroupComparison",
    "average_latency_by_group_size",
    "aggregate_reduction",
    "ReductionSummary",
]
