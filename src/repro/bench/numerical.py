"""Numerical experiments: Table II, Figure 7 and Table IV.

These use only the analytical latency model plus the Table III measurements;
no simulation is involved, exactly as in the paper's Section VI-C.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.comparison import (
    GROUP_SIZES,
    aggregate_reduction,
    average_latency_by_group_size,
)
from ..analysis.ec2 import ec2_latency_matrix
from ..analysis.latency_model import (
    clock_rsm_balanced,
    clock_rsm_imbalanced,
    mencius_bcast_balanced_bounds,
    mencius_bcast_imbalanced,
    paxos_bcast_latency,
    paxos_latency,
)
from ..net.latency import LatencyMatrix
from ..types import micros_to_ms


def table2_rows(
    sites: Sequence[str], leader_site: str, matrix: Optional[LatencyMatrix] = None
) -> list[dict[str, object]]:
    """Table II instantiated for a concrete placement.

    One row per (protocol, replica) with the analytical commit latency in
    milliseconds under balanced and imbalanced workloads.
    """
    full = matrix if matrix is not None else ec2_latency_matrix(sites)
    group = full.restricted_to(sites)
    leader = list(sites).index(leader_site)
    rows: list[dict[str, object]] = []
    for origin, site in enumerate(sites):
        mencius_low, mencius_high = mencius_bcast_balanced_bounds(group, origin)
        rows.append(
            {
                "site": site,
                "paxos_ms": round(micros_to_ms(paxos_latency(group, origin, leader)), 1),
                "paxos_bcast_ms": round(
                    micros_to_ms(paxos_bcast_latency(group, origin, leader)), 1
                ),
                "mencius_bcast_balanced_ms": (
                    round(micros_to_ms(mencius_low), 1),
                    round(micros_to_ms(mencius_high), 1),
                ),
                "mencius_bcast_imbalanced_ms": round(
                    micros_to_ms(mencius_bcast_imbalanced(group, origin)), 1
                ),
                "clock_rsm_balanced_ms": round(
                    micros_to_ms(clock_rsm_balanced(group, origin)), 1
                ),
                "clock_rsm_imbalanced_ms": round(
                    micros_to_ms(clock_rsm_imbalanced(group, origin)), 1
                ),
            }
        )
    return rows


def figure7_data() -> list[dict[str, float]]:
    """Figure 7: average 'all' / 'highest' latency per replica-group size."""
    rows = []
    for entry in average_latency_by_group_size():
        rows.append(
            {
                "group_size": entry.group_size,
                "groups": entry.group_count,
                "paxos_bcast_all_ms": round(entry.paxos_bcast_all, 1),
                "clock_rsm_all_ms": round(entry.clock_rsm_all, 1),
                "paxos_bcast_highest_ms": round(entry.paxos_bcast_highest, 1),
                "clock_rsm_highest_ms": round(entry.clock_rsm_highest, 1),
            }
        )
    return rows


def table4_rows() -> list[dict[str, float]]:
    """Table IV: latency reduction of Clock-RSM over Paxos-bcast per group size."""
    rows = []
    for size in GROUP_SIZES:
        wins, losses = aggregate_reduction(size)
        rows.append(
            {
                "group_size": size,
                "bucket": "clock-rsm lower",
                "replica_percentage": round(100.0 * wins.replica_fraction, 1),
                "absolute_reduction_ms": round(wins.absolute_reduction_ms, 1),
                "relative_reduction_pct": round(100.0 * wins.relative_reduction, 1),
            }
        )
        rows.append(
            {
                "group_size": size,
                "bucket": "clock-rsm higher",
                "replica_percentage": round(100.0 * losses.replica_fraction, 1),
                "absolute_reduction_ms": round(losses.absolute_reduction_ms, 1),
                "relative_reduction_pct": round(100.0 * losses.relative_reduction, 1),
            }
        )
    return rows


__all__ = ["table2_rows", "figure7_data", "table4_rows"]
