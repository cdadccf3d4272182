"""The paper's Table III: average RTTs between Amazon EC2 data centers.

The seven sites are California (CA), Virginia (VA), Ireland (IR), Tokyo (JP),
Singapore (SG), Australia (AU) and São Paulo (BR).  Values are milliseconds
of round-trip time measured with ping; the analytical model and the simulator
assume symmetric one-way delays of half the RTT.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..net.latency import LatencyMatrix

#: Site names in the order the paper lists them.
EC2_SITES: tuple[str, ...] = ("CA", "VA", "IR", "JP", "SG", "AU", "BR")

#: Round-trip times in milliseconds (Table III).
EC2_RTT_MS: dict[tuple[str, str], float] = {
    ("CA", "VA"): 83.0,
    ("CA", "IR"): 170.0,
    ("CA", "JP"): 125.0,
    ("CA", "SG"): 171.0,
    ("CA", "AU"): 187.0,
    ("CA", "BR"): 212.0,
    ("VA", "IR"): 101.0,
    ("VA", "JP"): 215.0,
    ("VA", "SG"): 254.0,
    ("VA", "AU"): 220.0,
    ("VA", "BR"): 137.0,
    ("IR", "JP"): 280.0,
    ("IR", "SG"): 216.0,
    ("IR", "AU"): 305.0,
    ("IR", "BR"): 216.0,
    ("JP", "SG"): 77.0,
    ("JP", "AU"): 129.0,
    ("JP", "BR"): 368.0,
    ("SG", "AU"): 188.0,
    ("SG", "BR"): 369.0,
    ("AU", "BR"): 349.0,
}

#: The replica placements used by the paper's EC2 experiments.
THREE_REPLICA_SITES: tuple[str, ...] = ("CA", "VA", "IR")
FIVE_REPLICA_SITES: tuple[str, ...] = ("CA", "VA", "IR", "JP", "SG")


def ec2_latency_matrix(sites: Optional[Sequence[str]] = None) -> LatencyMatrix:
    """Build the one-way latency matrix for *sites* (default: all seven).

    The diagonal (a replica's delay to itself) is zero: the analytical model
    ignores the intra-data-center RTT, as the paper does.
    """
    selected = tuple(sites) if sites is not None else EC2_SITES
    full = LatencyMatrix.from_rtt_ms(EC2_SITES, EC2_RTT_MS)
    if selected == EC2_SITES:
        return full
    return full.restricted_to(selected)


__all__ = [
    "EC2_SITES",
    "EC2_RTT_MS",
    "THREE_REPLICA_SITES",
    "FIVE_REPLICA_SITES",
    "ec2_latency_matrix",
]
