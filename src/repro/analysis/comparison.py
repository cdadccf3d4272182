"""Numerical comparison of Clock-RSM and Paxos-bcast over EC2 placements.

Reproduces Figure 7 (average commit latency over all groups of three, five
and seven EC2 data centers, for all replicas and for the worst replica of
each group) and Table IV (the per-replica latency reduction of Clock-RSM over
Paxos-bcast, split into the replicas where Clock-RSM wins and loses).

Paxos-bcast always gets its best leader: the replica minimising the group's
average latency, exactly as the paper does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from ..net.latency import LatencyMatrix
from ..types import micros_to_ms
from .ec2 import EC2_SITES, ec2_latency_matrix
from .latency_model import clock_rsm_balanced, paxos_bcast_latency


#: The replica-group sizes Figure 7 and Table IV cover.
GROUP_SIZES: tuple[int, ...] = (3, 5, 7)


def enumerate_groups(sites: Sequence[str], size: int) -> list[tuple[str, ...]]:
    """All combinations of *size* sites, preserving the input order."""
    return [tuple(group) for group in itertools.combinations(sites, size)]


def best_paxos_bcast_leader(matrix: LatencyMatrix) -> int:
    """The leader index minimising the group's average Paxos-bcast latency."""
    n = matrix.size
    best_leader, best_average = 0, float("inf")
    for leader in range(n):
        average = sum(paxos_bcast_latency(matrix, origin, leader) for origin in range(n)) / n
        if average < best_average:
            best_leader, best_average = leader, average
    return best_leader


@dataclass(frozen=True)
class GroupComparison:
    """Per-replica latencies of one replica placement (in milliseconds)."""

    sites: tuple[str, ...]
    paxos_bcast_leader: str
    clock_rsm_ms: tuple[float, ...]
    paxos_bcast_ms: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.sites)

    @property
    def clock_rsm_average(self) -> float:
        return sum(self.clock_rsm_ms) / self.size

    @property
    def paxos_bcast_average(self) -> float:
        return sum(self.paxos_bcast_ms) / self.size

    @property
    def clock_rsm_highest(self) -> float:
        return max(self.clock_rsm_ms)

    @property
    def paxos_bcast_highest(self) -> float:
        return max(self.paxos_bcast_ms)


def compare_group(
    sites: Sequence[str], matrix: Optional[LatencyMatrix] = None
) -> GroupComparison:
    """Compare Clock-RSM and best-leader Paxos-bcast for one placement."""
    full = matrix if matrix is not None else ec2_latency_matrix()
    group_matrix = full.restricted_to(sites)
    leader = best_paxos_bcast_leader(group_matrix)
    clock_rsm = tuple(
        micros_to_ms(clock_rsm_balanced(group_matrix, origin)) for origin in range(len(sites))
    )
    paxos_bcast = tuple(
        micros_to_ms(paxos_bcast_latency(group_matrix, origin, leader))
        for origin in range(len(sites))
    )
    return GroupComparison(
        sites=tuple(sites),
        paxos_bcast_leader=sites[leader],
        clock_rsm_ms=clock_rsm,
        paxos_bcast_ms=paxos_bcast,
    )


def compare_all_groups(size: int) -> list[GroupComparison]:
    """Compare every placement of *size* replicas drawn from the EC2 sites."""
    full = ec2_latency_matrix()
    return [compare_group(group, full) for group in enumerate_groups(EC2_SITES, size)]


@dataclass(frozen=True)
class AverageLatencies:
    """One group-size bar group of Figure 7 (milliseconds)."""

    group_size: int
    group_count: int
    paxos_bcast_all: float
    clock_rsm_all: float
    paxos_bcast_highest: float
    clock_rsm_highest: float


def average_latency_by_group_size() -> list[AverageLatencies]:
    """Figure 7: average 'all' and 'highest' latencies per group size."""
    results = []
    for size in GROUP_SIZES:
        groups = compare_all_groups(size)
        count = len(groups)
        results.append(
            AverageLatencies(
                group_size=size,
                group_count=count,
                paxos_bcast_all=sum(g.paxos_bcast_average for g in groups) / count,
                clock_rsm_all=sum(g.clock_rsm_average for g in groups) / count,
                paxos_bcast_highest=sum(g.paxos_bcast_highest for g in groups) / count,
                clock_rsm_highest=sum(g.clock_rsm_highest for g in groups) / count,
            )
        )
    return results


@dataclass(frozen=True)
class ReductionSummary:
    """One half of a Table IV row: replicas where Clock-RSM wins (or loses).

    ``absolute_reduction_ms`` and ``relative_reduction`` are averaged over the
    replicas in this bucket; negative values mean Clock-RSM is slower.
    """

    group_size: int
    replica_fraction: float
    absolute_reduction_ms: float
    relative_reduction: float


def aggregate_reduction(size: int) -> tuple[ReductionSummary, ReductionSummary]:
    """Table IV: latency reduction of Clock-RSM over Paxos-bcast.

    Returns ``(wins, losses)``: the bucket of replicas where Clock-RSM has
    strictly lower latency and the bucket where it is higher or equal (the
    paper folds exact ties into the second bucket, which is why its
    three-replica row reads 0% / 100%).  The relative reduction of a bucket
    is the bucket's mean absolute reduction divided by its mean Paxos-bcast
    latency.
    """
    groups = compare_all_groups(size)
    wins: list[tuple[float, float]] = []
    losses: list[tuple[float, float]] = []
    for group in groups:
        for clock_ms, paxos_ms in zip(group.clock_rsm_ms, group.paxos_bcast_ms):
            reduction = paxos_ms - clock_ms
            if reduction > 0:
                wins.append((reduction, paxos_ms))
            else:
                losses.append((reduction, paxos_ms))
    total = len(wins) + len(losses)

    def _summary(bucket: list[tuple[float, float]]) -> ReductionSummary:
        if not bucket:
            return ReductionSummary(size, 0.0, 0.0, 0.0)
        mean_reduction = sum(b[0] for b in bucket) / len(bucket)
        mean_paxos = sum(b[1] for b in bucket) / len(bucket)
        return ReductionSummary(
            group_size=size,
            replica_fraction=len(bucket) / total,
            absolute_reduction_ms=mean_reduction,
            relative_reduction=mean_reduction / mean_paxos if mean_paxos else 0.0,
        )

    return _summary(wins), _summary(losses)


__all__ = [
    "GROUP_SIZES",
    "enumerate_groups",
    "best_paxos_bcast_leader",
    "GroupComparison",
    "compare_group",
    "compare_all_groups",
    "AverageLatencies",
    "average_latency_by_group_size",
    "ReductionSummary",
    "aggregate_reduction",
]
