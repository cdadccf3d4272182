"""Wiring a full simulated cluster: clocks, logs, replicas, network, nodes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..clocks.base import Clock
from ..clocks.physical import DriftingClock, SkewedClock
from ..config import BatchingOptions, ClusterSpec, ProtocolConfig
from ..errors import ConfigurationError
from ..net.batching import BatchAccumulator
from ..net.latency import LatencyMatrix
from ..protocols.base import Replica
from ..protocols.records import make_unit, unit_commands
from ..protocols.registry import create_replica
from ..statemachine import AppendLogStateMachine, StateMachine
from ..storage.memory_log import InMemoryLog
from ..types import Command, CommandId, Micros, ReplicaId, check_seqno
from .environment import SimulationEnvironment
from .network import NetworkOptions, SimulatedNetwork
from .node import CpuModel, SimulatedNode


@dataclass(frozen=True, slots=True)
class ReplyEvent:
    """A committed client command observed at its originating replica."""

    replica_id: ReplicaId
    command_id: CommandId
    output: Any
    time: Micros


ReplyCallback = Callable[[ReplyEvent], None]

#: Callback signature for client submissions: (replica_id, command, time).
SubmitCallback = Callable[[ReplicaId, Command, Micros], None]


class SimulatedCluster:
    """A full protocol deployment inside the discrete-event simulator.

    Args:
        spec: Cluster specification (one replica per site).
        latency: One-way latency matrix; its sites must match the spec.
        protocol: Protocol name (see :mod:`repro.protocols.registry`).
        protocol_config: Protocol tunables (leader, Δ, ...).
        seed: Seed for all randomness (jitter, workloads built on top).
        network_options: Jitter / loss configuration.
        clock_offsets: Optional per-replica clock skew in µs; replicas not
            listed get a perfect clock.
        clock_drift_ppm: Optional per-replica drift (µs gained per second).
        cpu_model: Enables the CPU/batching cost model (throughput runs).
        state_machine_factory: Builds each replica's state machine
            (defaults to :class:`~repro.statemachine.AppendLogStateMachine`).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        latency: LatencyMatrix,
        protocol: str,
        protocol_config: Optional[ProtocolConfig] = None,
        *,
        seed: int = 0,
        network_options: NetworkOptions = NetworkOptions(),
        clock_offsets: Optional[dict[ReplicaId, Micros]] = None,
        clock_drift_ppm: Optional[dict[ReplicaId, float]] = None,
        cpu_model: Optional[CpuModel] = None,
        state_machine_factory: Callable[[ReplicaId], StateMachine] = lambda _rid: AppendLogStateMachine(),
        batching: Optional[BatchingOptions] = None,
    ) -> None:
        if tuple(latency.sites) != tuple(spec.sites):
            latency = latency.restricted_to(spec.sites)
        self.spec = spec
        self.latency = latency
        self.protocol = protocol
        self.protocol_config = protocol_config or ProtocolConfig()
        self.env = SimulationEnvironment(seed=seed)
        self.network = SimulatedNetwork(self.env, latency, network_options)
        self.cpu_model = cpu_model
        self._clock_offsets = dict(clock_offsets or {})
        self._clock_drift = dict(clock_drift_ppm or {})
        self._state_machine_factory = state_machine_factory
        self._reply_callbacks: list[ReplyCallback] = []
        self._submit_callbacks: list[SubmitCallback] = []
        self.replies: list[ReplyEvent] = []
        #: Opportunistic command batching at the submission path: one
        #: accumulator per replica on the simulation clock (``None``: off).
        self.batching = batching if batching is not None and batching.enabled else None
        self._accumulators: dict[ReplicaId, BatchAccumulator[Command]] = {}

        self.logs: dict[ReplicaId, InMemoryLog] = {}
        self.clocks: dict[ReplicaId, Clock] = {}
        self.nodes: dict[ReplicaId, SimulatedNode] = {}
        for replica_spec in spec.replicas:
            rid = replica_spec.replica_id
            self.logs[rid] = InMemoryLog()
            self.clocks[rid] = self._build_clock(rid)
            replica = self._build_replica(rid)
            node = SimulatedNode(
                self.env,
                self.network,
                replica,
                reply_handler=self._on_reply,
                cpu_model=cpu_model,
            )
            self.nodes[rid] = node
            if self.batching is not None:
                self._accumulators[rid] = BatchAccumulator(
                    self.batching,
                    lambda commands, node=node: node.submit_client_request(make_unit(commands)),
                    self.env,
                )
        self._started = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_clock(self, replica_id: ReplicaId) -> Clock:
        offset = self._clock_offsets.get(replica_id, 0)
        drift = self._clock_drift.get(replica_id, 0.0)
        if drift:
            return DriftingClock(self.env, skew=offset, drift_ppm=drift)
        # A zero-skew SkewedClock reads true time but stays adjustable, so
        # clock-jump faults can step any replica's clock.
        return SkewedClock(self.env, skew=offset)

    def _build_replica(self, replica_id: ReplicaId, recover: bool = False) -> Replica:
        kwargs: dict[str, Any] = dict(
            clock=self.clocks[replica_id],
            log=self.logs[replica_id],
            state_machine=self._state_machine_factory(replica_id),
            config=self.protocol_config,
        )
        if recover:
            kwargs["recover"] = True
        return create_replica(self.protocol, replica_id, self.spec, **kwargs)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def now(self) -> Micros:
        return self.env.now

    def replica(self, replica_id: ReplicaId) -> Replica:
        return self.nodes[replica_id].replica

    def replicas(self) -> list[Replica]:
        return [node.replica for node in self.nodes.values()]

    def replica_by_site(self, site: str) -> Replica:
        return self.replica(self.spec.by_site(site).replica_id)

    def state_machine(self, replica_id: ReplicaId) -> StateMachine:
        return self.replica(replica_id).state_machine

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every node (arms initial protocol timers)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.start()

    def run_for(self, duration: Micros) -> None:
        self.start()
        self.env.run_for(duration)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        self.start()
        self.env.run_until_idle(max_events=max_events)

    # ------------------------------------------------------------------
    # Client interaction
    # ------------------------------------------------------------------

    def on_reply(self, callback: ReplyCallback) -> None:
        """Register a callback invoked for every committed client command."""
        self._reply_callbacks.append(callback)

    def on_submit(self, callback: SubmitCallback) -> None:
        """Register a callback invoked for every submitted client command."""
        self._submit_callbacks.append(callback)

    def _on_reply(self, replica_id: ReplicaId, command_id: Any, output: Any, time: Micros) -> None:
        event = ReplyEvent(replica_id, command_id, output, time)
        self.replies.append(event)
        for callback in self._reply_callbacks:
            callback(event)

    def submit(self, replica_id: ReplicaId, command: Command) -> Command:
        """Submit *command* to *replica_id* at the current simulation time.

        With batching configured, the command joins the replica's
        :class:`~repro.net.batching.BatchAccumulator` instead of reaching the
        protocol immediately: it flushes as one
        :class:`~repro.protocols.records.CommandBatch` when it holds
        ``max_batch`` commands or when the window expires (``window_us = 0``
        flushes at the same virtual instant, so commands submitted at one
        simulation time batch together).

        Raises :class:`~repro.errors.ClientError` for a seqno outside signed
        64 bits.
        """
        self.start()
        if replica_id not in self.nodes:
            raise ConfigurationError(f"unknown replica {replica_id}")
        for constituent in unit_commands(command):
            check_seqno(constituent.command_id)
        for callback in self._submit_callbacks:
            callback(replica_id, command, self.env.now)
        accumulator = self._accumulators.get(replica_id)
        if accumulator is None:
            self.nodes[replica_id].submit_client_request(command)
        else:
            accumulator.add(command)
        return command

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def crash(self, replica_id: ReplicaId) -> None:
        """Crash a replica; its stable log survives, its soft state does not."""
        self.nodes[replica_id].crash()

    def recover(self, replica_id: ReplicaId, rejoin: bool = False) -> Replica:
        """Recover a crashed replica from its stable log and restart it.

        With ``rejoin`` the recovered replica immediately triggers a
        reconfiguration back to the full deployment (protocols with the
        reconfiguration capability only).
        """
        replica = self._build_replica(replica_id, recover=True)
        node = self.nodes[replica_id]
        node.set_replica(replica)
        node.start()
        if rejoin and getattr(replica, "reconfig", None) is not None:
            node._perform(replica.reconfig.trigger(tuple(self.spec.replica_ids)))
        return replica

    def partition(self, a: ReplicaId, b: ReplicaId) -> None:
        self.network.partition(a, b)

    def heal(self, a: ReplicaId, b: ReplicaId) -> None:
        self.network.heal(a, b)

    def isolate(self, replica_id: ReplicaId) -> None:
        self.network.isolate(replica_id)

    def heal_all(self) -> None:
        self.network.heal_all()

    def clock_jump(self, replica_id: ReplicaId, delta: Micros) -> None:
        """Step one replica's physical clock by *delta* microseconds.

        The replica's timestamp source stays monotonic, so a negative jump
        freezes its outgoing timestamps until the clock catches up again —
        exactly the failure mode a consistency check wants to provoke.
        """
        clock = self.clocks[replica_id]
        adjust = getattr(clock, "adjust", None)
        if adjust is None:  # pragma: no cover - every built clock is adjustable
            raise ConfigurationError(
                f"clock of replica {replica_id} ({type(clock).__name__}) "
                "cannot be stepped"
            )
        adjust(delta)

    # ------------------------------------------------------------------
    # Consistency checking
    # ------------------------------------------------------------------

    def execution_orders(self) -> dict[ReplicaId, list[CommandId]]:
        """Per-replica execution order (for total-order assertions)."""
        return {rid: list(node.replica.execution_order) for rid, node in self.nodes.items()}

    def assert_consistent_order(self) -> None:
        """Raise ``AssertionError`` unless execution orders are prefix-consistent."""
        orders = list(self.execution_orders().values())
        reference = max(orders, key=len)
        for order in orders:
            if order != reference[: len(order)]:
                raise AssertionError(
                    f"divergent execution orders: {order[:20]} vs {reference[:20]}"
                )


__all__ = ["SimulatedCluster", "ReplyEvent", "ReplyCallback", "SubmitCallback"]
