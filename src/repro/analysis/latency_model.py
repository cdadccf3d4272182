"""Closed-form commit latency (the paper's Table II).

Every function takes a :class:`~repro.net.latency.LatencyMatrix` of one-way
delays (µs) and replica indices, and returns the expected commit latency in
µs.  ``median`` is the majority-forming delay — the ⌊N/2⌋-th smallest entry
of a row that includes the replica's own zero delay — exactly the paper's
``median({d(ri, rk) | ∀rk ∈ R})``.
"""

from __future__ import annotations

from typing import Iterable

from ..net.latency import LatencyMatrix
from ..types import Micros


def median_delay(matrix: LatencyMatrix, replica: int) -> Micros:
    """``median({d(replica, k) | k ∈ R})`` (majority-forming one-way delay)."""
    return matrix.median_delay_from(replica)


def max_delay(matrix: LatencyMatrix, replica: int) -> Micros:
    """``max({d(replica, k) | k ∈ R})`` (delay to the farthest replica)."""
    return matrix.max_delay_from(replica)


def _median_of(values: Iterable[Micros]) -> Micros:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


# ---------------------------------------------------------------------------
# Clock-RSM
# ---------------------------------------------------------------------------


def clock_rsm_majority_replication(matrix: LatencyMatrix, origin: int) -> Micros:
    """lc1: one round trip to the closest majority."""
    return 2 * median_delay(matrix, origin)


def clock_rsm_stable_order_best(matrix: LatencyMatrix, origin: int) -> Micros:
    """lc2 (best case): one-way delay from the farthest replica."""
    return max_delay(matrix, origin)


def clock_rsm_stable_order_worst(matrix: LatencyMatrix, origin: int) -> Micros:
    """lc2 (worst case): a full round trip to the farthest replica."""
    return 2 * max_delay(matrix, origin)


def clock_rsm_prefix_replication_worst(matrix: LatencyMatrix, origin: int) -> Micros:
    """lc3 (worst case): two-hop delay from any replica via its majority.

    ``max over j of median over k of (d(j, k) + d(k, origin))`` — the time for
    replica j's concurrent slightly-earlier command to reach a majority whose
    acknowledgements reach the origin.
    """
    n = matrix.size
    worst = 0
    for j in range(n):
        two_hop = [matrix.delay(j, k) + matrix.delay(k, origin) for k in range(n)]
        worst = max(worst, _median_of(two_hop))
    return worst


def clock_rsm_balanced(matrix: LatencyMatrix, origin: int) -> Micros:
    """Clock-RSM commit latency under balanced workloads (Table II)."""
    return max(
        clock_rsm_majority_replication(matrix, origin),
        clock_rsm_stable_order_best(matrix, origin),
        clock_rsm_prefix_replication_worst(matrix, origin),
    )


def clock_rsm_imbalanced(matrix: LatencyMatrix, origin: int) -> Micros:
    """Clock-RSM latency when only *origin* serves (moderate/heavy) requests."""
    return max(
        clock_rsm_majority_replication(matrix, origin),
        clock_rsm_stable_order_best(matrix, origin),
    )


def clock_rsm_light_imbalanced(
    matrix: LatencyMatrix, origin: int, clocktime_interval: Micros = 0
) -> Micros:
    """Clock-RSM latency for a single lightly-loaded origin.

    Without the CLOCKTIME extension the stable-order condition needs a full
    round trip to the farthest replica; with the extension (broadcast every Δ)
    it needs ``max one-way + Δ``.
    """
    if clocktime_interval <= 0:
        return max(
            clock_rsm_majority_replication(matrix, origin),
            clock_rsm_stable_order_worst(matrix, origin),
        )
    return max(
        clock_rsm_majority_replication(matrix, origin),
        clock_rsm_stable_order_best(matrix, origin) + clocktime_interval,
    )


# ---------------------------------------------------------------------------
# Paxos and Paxos-bcast
# ---------------------------------------------------------------------------


def paxos_latency(matrix: LatencyMatrix, origin: int, leader: int) -> Micros:
    """Multi-Paxos commit latency at *origin* with the given *leader*."""
    leader_round_trip = 2 * median_delay(matrix, leader)
    if origin == leader:
        return leader_round_trip
    return 2 * matrix.delay(origin, leader) + leader_round_trip


def paxos_bcast_latency(matrix: LatencyMatrix, origin: int, leader: int) -> Micros:
    """Paxos-bcast commit latency at *origin* with the given *leader*."""
    if origin == leader:
        return 2 * median_delay(matrix, leader)
    n = matrix.size
    two_hop = [matrix.delay(leader, k) + matrix.delay(k, origin) for k in range(n)]
    return matrix.delay(origin, leader) + _median_of(two_hop)


# ---------------------------------------------------------------------------
# Mencius-bcast
# ---------------------------------------------------------------------------


def mencius_bcast_imbalanced(matrix: LatencyMatrix, origin: int) -> Micros:
    """Mencius-bcast latency when only *origin* proposes commands."""
    return 2 * max_delay(matrix, origin)


def mencius_bcast_balanced_bounds(matrix: LatencyMatrix, origin: int) -> tuple[Micros, Micros]:
    """Mencius-bcast latency bounds under balanced workloads: [q, q + max].

    ``q`` is Clock-RSM's balanced latency at the same replica; the upper
    bound adds one one-way delay to the farthest replica (the delayed-commit
    penalty).
    """
    q = clock_rsm_balanced(matrix, origin)
    return q, q + max_delay(matrix, origin)


# ---------------------------------------------------------------------------
# Uniform entry point
# ---------------------------------------------------------------------------


def protocol_latency(protocol: str, matrix: LatencyMatrix, origin: int) -> Micros:
    """Expected commit latency of *protocol* at *origin* (Table II).

    The workload is balanced, and the Paxos leader is replica 0. For
    Mencius-bcast the midpoint of the paper's [q, q + max] interval is
    returned as the expectation (the delayed-commit penalty is uniformly
    distributed between zero and one one-way delay).
    """
    if protocol == "clock-rsm":
        return clock_rsm_balanced(matrix, origin)
    if protocol == "paxos":
        return paxos_latency(matrix, origin, 0)
    if protocol == "paxos-bcast":
        return paxos_bcast_latency(matrix, origin, 0)
    if protocol in ("mencius", "mencius-bcast"):
        low, high = mencius_bcast_balanced_bounds(matrix, origin)
        return (low + high) // 2
    raise ValueError(f"unknown protocol {protocol!r}")


__all__ = [
    "median_delay",
    "max_delay",
    "clock_rsm_majority_replication",
    "clock_rsm_stable_order_best",
    "clock_rsm_stable_order_worst",
    "clock_rsm_prefix_replication_worst",
    "clock_rsm_balanced",
    "clock_rsm_imbalanced",
    "clock_rsm_light_imbalanced",
    "paxos_latency",
    "paxos_bcast_latency",
    "mencius_bcast_imbalanced",
    "mencius_bcast_balanced_bounds",
    "protocol_latency",
]
