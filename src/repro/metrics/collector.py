"""Collectors the workload clients of every backend record measurements into."""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from ..types import CommandId, Micros, ReplicaId
from .stats import LatencySummary, summarize_micros


class LatencyCollector:
    """Records per-command commit latency at the originating replica.

    Workload generators call :meth:`record_submit` when a command leaves a
    client; the cluster's reply hook calls :meth:`record_commit` when the
    originating replica answers.  Latencies are grouped per replica, matching
    the per-site bars of the paper's latency figures.
    """

    def __init__(self, warmup_until: Micros = 0) -> None:
        #: Measurements submitted before this simulation time are discarded.
        self.warmup_until = warmup_until
        self._submit_times: dict[CommandId, tuple[ReplicaId, Micros]] = {}
        self._latencies: dict[ReplicaId, list[Micros]] = defaultdict(list)

    def record_submit(self, command_id: CommandId, replica_id: ReplicaId, time: Micros) -> None:
        self._submit_times[command_id] = (replica_id, time)

    def record_commit(self, command_id: CommandId, time: Micros) -> None:
        entry = self._submit_times.pop(command_id, None)
        if entry is None:
            return
        replica_id, submit_time = entry
        if submit_time < self.warmup_until:
            return
        self._latencies[replica_id].append(time - submit_time)

    def record_span(self, replica_id: ReplicaId, submit_time: Micros, commit_time: Micros) -> None:
        """Record a completed command when the caller tracked both endpoints.

        Hot-path variant of ``record_submit`` + ``record_commit`` for
        workloads that already hold the submit timestamp across the await —
        no per-command dict entry, no two ``CommandId`` hash lookups.
        """
        if submit_time < self.warmup_until:
            return
        self._latencies[replica_id].append(commit_time - submit_time)

    # -- results ----------------------------------------------------------------

    def count(self, replica_id: Optional[ReplicaId] = None) -> int:
        if replica_id is None:
            return sum(len(v) for v in self._latencies.values())
        return len(self._latencies.get(replica_id, ()))

    def latencies_micros(self, replica_id: ReplicaId) -> list[Micros]:
        return list(self._latencies.get(replica_id, ()))

    def all_latencies_micros(self) -> list[Micros]:
        return [value for values in self._latencies.values() for value in values]

    def summary(self, replica_id: ReplicaId) -> LatencySummary:
        return summarize_micros(self.latencies_micros(replica_id))


__all__ = ["LatencyCollector"]
