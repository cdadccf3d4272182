"""One-way latency matrices between replica sites.

The paper measures round-trip times between Amazon EC2 data centers
(Table III) and assumes symmetric one-way latencies of half the RTT.  A
:class:`LatencyMatrix` stores one-way delays in microseconds, indexed either
by replica id or by site name, and feeds both the discrete-event simulator
(:mod:`repro.sim.network`) and the analytical model
(:mod:`repro.analysis.latency_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..types import Micros, ReplicaId, ms_to_micros


@dataclass(frozen=True)
class LatencyMatrix:
    """Symmetric one-way latency matrix between a fixed, ordered set of sites.

    Attributes:
        sites: Site names, in replica-id order (index ``i`` is replica ``i``).
        one_way: ``one_way[i][j]`` is the one-way delay from site ``i`` to
            site ``j`` in microseconds.  The diagonal is the local
            (intra-data-center) delay; the paper measures ~0.6 ms RTT inside
            a data center but ignores it analytically, so it defaults to 0.
    """

    sites: tuple[str, ...]
    one_way: tuple[tuple[Micros, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.sites)
        if len(self.one_way) != n or any(len(row) != n for row in self.one_way):
            raise ConfigurationError("latency matrix shape does not match site count")
        for i in range(n):
            for j in range(n):
                if self.one_way[i][j] < 0:
                    raise ConfigurationError("latencies must be non-negative")
                if self.one_way[i][j] != self.one_way[j][i]:
                    raise ConfigurationError(
                        f"latency matrix must be symmetric: "
                        f"{self.sites[i]}->{self.sites[j]} differs from the reverse"
                    )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rtt_ms(
        cls,
        sites: Sequence[str],
        rtt_ms: Mapping[tuple[str, str], float],
    ) -> "LatencyMatrix":
        """Build a matrix from pairwise RTTs in milliseconds.

        ``rtt_ms`` needs each unordered pair exactly once (either direction).
        One-way delay is RTT / 2, as the paper assumes symmetric links; a
        replica's delay to itself is zero.
        """
        n = len(sites)
        index = {site: i for i, site in enumerate(sites)}
        if len(index) != n:
            raise ConfigurationError(f"duplicate sites: {sites}")
        grid: list[list[Micros]] = [[0] * n for _ in range(n)]
        for (a, b), rtt in rtt_ms.items():
            if a not in index or b not in index:
                continue
            i, j = index[a], index[b]
            one_way = ms_to_micros(rtt / 2.0)
            grid[i][j] = one_way
            grid[j][i] = one_way
        for i in range(n):
            for j in range(n):
                if i != j and grid[i][j] == 0:
                    raise ConfigurationError(
                        f"missing RTT for pair ({sites[i]}, {sites[j]})"
                    )
        return cls(tuple(sites), tuple(tuple(row) for row in grid))

    @classmethod
    def uniform(cls, sites: Sequence[str], one_way: Micros) -> "LatencyMatrix":
        """A matrix where every inter-site delay equals *one_way* (0 within a site)."""
        n = len(sites)
        grid = tuple(tuple(0 if i == j else one_way for j in range(n)) for i in range(n))
        return cls(tuple(sites), grid)

    # -- accessors ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.sites)

    def site_index(self, site: str) -> int:
        try:
            return self.sites.index(site)
        except ValueError:
            raise ConfigurationError(f"unknown site {site!r}") from None

    def delay(self, src: ReplicaId, dst: ReplicaId) -> Micros:
        """One-way delay between two replicas, by replica id."""
        return self.one_way[src][dst]

    def restricted_to(self, sites: Sequence[str]) -> "LatencyMatrix":
        """A sub-matrix covering only *sites*, in the given order."""
        indices = [self.site_index(s) for s in sites]
        grid = tuple(
            tuple(self.one_way[i][j] for j in indices) for i in indices
        )
        return LatencyMatrix(tuple(sites), grid)

    def max_delay_from(self, src: ReplicaId) -> Micros:
        return max(self.one_way[src])

    def median_delay_from(self, src: ReplicaId) -> Micros:
        """The majority-forming delay from *src*: the ⌊N/2⌋-th smallest delay
        in the row including the local (self) delay.

        With N replicas this is the delay to the farthest member of the
        closest majority that includes *src* itself, which is exactly the
        quantity written ``median({d(ri, rk) | ∀rk ∈ R})`` in the paper.
        """
        row = sorted(self.one_way[src])
        return row[len(row) // 2]


__all__ = ["LatencyMatrix"]
