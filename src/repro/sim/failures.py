"""Scripted fault injection, for simulated and live clusters alike.

Failure scenarios (crash a replica at t=2 s, recover it at t=6 s, partition a
pair for a while, ...) are expressed declaratively — by the builder methods
or from a spec's ``[[faults]]`` tables (:meth:`FailureSchedule.from_spec`) —
and installed through the timer the cluster runs on: a
:class:`~repro.sim.cluster.SimulatedCluster`'s environment by default,
event-loop timers for a :class:`~repro.runtime.local.LocalAsyncCluster`.
Both expose the fault methods a schedule calls (``crash``, ``recover``,
``partition``, ``heal``, ``clock_jump``; an isolation is a partition from
every peer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..config import ClusterSpec
from ..errors import ConfigurationError
from ..types import Micros, ReplicaId, ms_to_micros, seconds_to_micros

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiment.spec import FaultSpec

#: ``timer(at, thunk)``: run *thunk* at time *at* (µs since the run started).
Timer = Callable[[Micros, Callable[[], None]], Any]


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """Crash *replica_id* at simulation time *at*."""

    at: Micros
    replica_id: ReplicaId


@dataclass(frozen=True, slots=True)
class RecoverEvent:
    """Recover *replica_id* from its log at simulation time *at*.

    If ``rejoin`` is true and the replica runs Clock-RSM, it immediately
    triggers a reconfiguration to rejoin the active configuration.
    """

    at: Micros
    replica_id: ReplicaId
    rejoin: bool = False


@dataclass(frozen=True, slots=True)
class PartitionEvent:
    """Partition replicas *a* and *b* between *at* and *heal_at*."""

    at: Micros
    a: ReplicaId
    b: ReplicaId
    heal_at: Optional[Micros] = None


@dataclass(frozen=True, slots=True)
class ReconfigureEvent:
    """Have *initiator* trigger a reconfiguration to *new_config* at *at*."""

    at: Micros
    initiator: ReplicaId
    new_config: tuple[ReplicaId, ...]


@dataclass(frozen=True, slots=True)
class ClockJumpEvent:
    """Step *replica_id*'s physical clock by *delta* µs at time *at*."""

    at: Micros
    replica_id: ReplicaId
    delta: Micros


FailureEvent = (
    CrashEvent | RecoverEvent | PartitionEvent | ReconfigureEvent | ClockJumpEvent
)


class FailureSchedule:
    """A collection of failure events installable on a cluster."""

    def __init__(self, events: Optional[list[FailureEvent]] = None) -> None:
        self.events: list[FailureEvent] = list(events or [])

    @classmethod
    def from_spec(
        cls, faults: Iterable["FaultSpec"], cluster_spec: ClusterSpec, time_scale: float = 1.0
    ) -> "FailureSchedule":
        """The schedule a spec's ``[[faults]]`` tables describe, on any backend.

        Times and clock-jump deltas are spec-time durations: they are divided
        by *time_scale* like every other delay of a live run (sim runs at 1).
        """

        def micros(seconds: float) -> Micros:
            return seconds_to_micros(seconds / time_scale)

        schedule = cls()
        for fault in faults:
            at = micros(fault.at_s)
            heal_at = micros(fault.heal_at_s) if fault.heal_at_s is not None else None
            rid = cluster_spec.by_site(fault.site).replica_id
            if fault.kind == "crash":
                schedule.crash(at, rid)
            elif fault.kind == "recover":
                schedule.recover(at, rid, rejoin=fault.rejoin)
            elif fault.kind == "partition":
                schedule.partition(at, rid, cluster_spec.by_site(fault.peer).replica_id, heal_at)
            elif fault.kind == "isolate":
                for other in cluster_spec.replica_ids:
                    if other != rid:
                        schedule.partition(at, rid, other, heal_at)
            elif fault.kind == "clock-jump":
                schedule.clock_jump(at, rid, int(ms_to_micros(fault.offset_ms) / time_scale))
            else:
                raise ConfigurationError(f"no backend can inject fault kind {fault.kind!r}")
        return schedule

    def crash(self, at: Micros, replica_id: ReplicaId) -> "FailureSchedule":
        self.events.append(CrashEvent(at, replica_id))
        return self

    def recover(self, at: Micros, replica_id: ReplicaId, rejoin: bool = False) -> "FailureSchedule":
        self.events.append(RecoverEvent(at, replica_id, rejoin))
        return self

    def partition(
        self, at: Micros, a: ReplicaId, b: ReplicaId, heal_at: Optional[Micros] = None
    ) -> "FailureSchedule":
        self.events.append(PartitionEvent(at, a, b, heal_at))
        return self

    def reconfigure(
        self, at: Micros, initiator: ReplicaId, new_config: tuple[ReplicaId, ...]
    ) -> "FailureSchedule":
        self.events.append(ReconfigureEvent(at, initiator, new_config))
        return self

    def clock_jump(self, at: Micros, replica_id: ReplicaId, delta: Micros) -> "FailureSchedule":
        self.events.append(ClockJumpEvent(at, replica_id, delta))
        return self

    def install(self, cluster: Any, timer: Optional[Timer] = None) -> None:
        """Schedule every event against *cluster* on *timer*.

        Without a timer, *cluster* is a simulated cluster: it is started and
        the events go onto its own simulation environment.
        """
        if timer is None:
            cluster.start()
            timer = cluster.env.schedule_at
        for event in self.events:
            if isinstance(event, CrashEvent):
                timer(event.at, lambda e=event: cluster.crash(e.replica_id))
            elif isinstance(event, RecoverEvent):
                timer(event.at, lambda e=event: cluster.recover(e.replica_id, rejoin=e.rejoin))
            elif isinstance(event, PartitionEvent):
                timer(event.at, lambda e=event: cluster.partition(e.a, e.b))
                if event.heal_at is not None:
                    timer(event.heal_at, lambda e=event: cluster.heal(e.a, e.b))
            elif isinstance(event, ReconfigureEvent):
                timer(event.at, lambda e=event: self._reconfigure(cluster, e))
            elif isinstance(event, ClockJumpEvent):
                timer(event.at, lambda e=event: cluster.clock_jump(e.replica_id, e.delta))

    @staticmethod
    def _reconfigure(cluster: Any, event: ReconfigureEvent) -> None:
        replica = cluster.replica(event.initiator)
        if not hasattr(replica, "reconfig") or replica.reconfig is None:
            raise ValueError(
                f"protocol {replica.protocol_name!r} does not support reconfiguration"
            )
        actions = replica.reconfig.trigger(event.new_config)
        cluster.nodes[event.initiator]._perform(actions)


__all__ = [
    "FailureSchedule",
    "CrashEvent",
    "RecoverEvent",
    "PartitionEvent",
    "ReconfigureEvent",
    "ClockJumpEvent",
]
