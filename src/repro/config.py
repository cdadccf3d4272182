"""Cluster and protocol configuration objects.

The paper distinguishes between ``Spec`` (the full, administrator-provided
set of replicas, fixed for the lifetime of the system) and ``Config`` (the
currently active subset, changed by reconfiguration).  :class:`ClusterSpec`
models the former; the active configuration is tracked per replica by the
protocols and by :mod:`repro.core.reconfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ConfigurationError
from .types import Micros, ReplicaId, majority, ms_to_micros


@dataclass(frozen=True, slots=True)
class ReplicaSpec:
    """Static description of a single replica.

    Attributes:
        replica_id: Small integer identifier, unique within the cluster.
        site: Human-readable location name (e.g. ``"CA"`` for the EC2
            California region used by the paper).
    """

    replica_id: ReplicaId
    site: str

    def __post_init__(self) -> None:
        if self.replica_id < 0:
            raise ConfigurationError(f"replica_id must be >= 0, got {self.replica_id}")
        if not self.site:
            raise ConfigurationError("replica site must be a non-empty string")


@dataclass(frozen=True)
class ClusterSpec:
    """The administrator-specified set of replicas (the paper's ``Spec``).

    The specification is immutable; reconfiguration only changes which of
    these replicas are currently *active*.
    """

    replicas: tuple[ReplicaSpec, ...]

    def __post_init__(self) -> None:
        ids = [r.replica_id for r in self.replicas]
        if len(self.replicas) == 0:
            raise ConfigurationError("a cluster needs at least one replica")
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate replica ids in spec: {ids}")
        sites = [r.site for r in self.replicas]
        if len(set(sites)) != len(sites):
            raise ConfigurationError(f"duplicate replica sites in spec: {sites}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sites(cls, sites: Sequence[str]) -> "ClusterSpec":
        """Build a spec with one replica per site, ids assigned in order."""
        return cls(tuple(ReplicaSpec(i, site) for i, site in enumerate(sites)))

    # -- accessors ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.replicas)

    @cached_property
    def replica_ids(self) -> tuple[ReplicaId, ...]:
        # Cached per instance: the spec is frozen, and every broadcast on
        # every backend reads this.
        return tuple(r.replica_id for r in self.replicas)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(r.site for r in self.replicas)

    @property
    def quorum_size(self) -> int:
        """Majority quorum size over the *specification* (the paper commits
        against a majority of ``Spec``, not of the active configuration)."""
        return majority(self.size)

    def replica(self, replica_id: ReplicaId) -> ReplicaSpec:
        for r in self.replicas:
            if r.replica_id == replica_id:
                return r
        raise ConfigurationError(f"unknown replica id {replica_id}")

    def by_site(self, site: str) -> ReplicaSpec:
        for r in self.replicas:
            if r.site == site:
                return r
        raise ConfigurationError(f"unknown replica site {site!r}")


@dataclass(frozen=True, slots=True)
class BatchingOptions:
    """Runtime batching/pipelining knobs shared by both backends.

    Attributes:
        max_batch: Largest number of client commands agreed on as one
            :class:`~repro.protocols.records.CommandBatch` (one protocol
            round / one wire message per batch).  ``1`` disables batching
            entirely — the accumulation path is bypassed and behaviour is
            bit-identical to an unbatched deployment.
        window_us: Opportunistic accumulation window in microseconds.  ``0``
            means "batch whatever is already queued, never wait": commands
            arriving in the same event-loop tick (asyncio) or at the same
            virtual instant (simulator) form a batch, matching the paper's
            implementation note.  A positive window trades latency for
            larger batches.
        pipeline_depth: How many units a client keeps in flight without
            awaiting the previous commit (message pipelining).  ``1`` is the
            classic closed loop.
    """

    max_batch: int = 1
    window_us: Micros = 0
    pipeline_depth: int = 1

    def __post_init__(self) -> None:
        for name in ("max_batch", "window_us", "pipeline_depth"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.window_us < 0:
            raise ConfigurationError(f"window_us must be >= 0, got {self.window_us}")
        if self.pipeline_depth < 1:
            raise ConfigurationError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )

    @property
    def enabled(self) -> bool:
        """Whether command accumulation is active at all."""
        return self.max_batch > 1


@dataclass(frozen=True, slots=True)
class ProtocolConfig:
    """Tunable parameters shared by the replication protocols.

    Attributes:
        clocktime_interval: The paper's Δ — the minimum interval at which a
            Clock-RSM replica broadcasts CLOCKTIME when idle (Algorithm 2).
            The paper's experiments use 5 ms.
        leader: Designated leader replica id for Paxos / Paxos-bcast.
        wait_for_clock: Whether a Clock-RSM replica faithfully waits until its
            physical clock passes a PREPARE timestamp before acknowledging
            (Algorithm 1 line 8).  Disabling it substitutes the HLC-style
            "bump forward" optimisation discussed in docs/PROTOCOLS.md,
            "When clock quality matters".
    """

    clocktime_interval: Micros = ms_to_micros(5.0)
    leader: ReplicaId = 0
    wait_for_clock: bool = True

    def __post_init__(self) -> None:
        if self.clocktime_interval <= 0:
            raise ConfigurationError("clocktime_interval must be positive")
        if self.leader < 0:
            raise ConfigurationError("leader id must be >= 0")


def validate_active_config(spec: ClusterSpec, active: Iterable[ReplicaId]) -> tuple[ReplicaId, ...]:
    """Check that an active configuration is a majority subset of the spec.

    The paper requires ``Config ⊆ Spec`` and ``|Config| >= majority(|Spec|)``.
    Returns the active ids as a sorted tuple.
    """
    active_ids = tuple(sorted(set(active)))
    unknown = [a for a in active_ids if a not in spec.replica_ids]
    if unknown:
        raise ConfigurationError(f"active replicas {unknown} are not in the spec")
    if len(active_ids) < spec.quorum_size:
        raise ConfigurationError(
            f"active configuration {active_ids} is smaller than a majority "
            f"of the spec ({spec.quorum_size} of {spec.size})"
        )
    return active_ids


__all__ = [
    "ReplicaSpec",
    "ClusterSpec",
    "BatchingOptions",
    "ProtocolConfig",
    "validate_active_config",
]
