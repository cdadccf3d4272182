"""Isolated micro-timers: one layer at a time, no cluster around it.

Each timer calls the layer directly on inputs built from the seeded payload
pool and reports the median of a few repeats.  They say what a layer costs
alone; the traced workloads say what it costs in situ.  A layer win should
show in both.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any, Callable

from repro.clocks.base import Clock
from repro.config import BatchingOptions, ClusterSpec, ProtocolConfig
from repro.core.messages import Prepare, PrepareOk
from repro.experiment import ExperimentSpec
from repro.kvstore.kv import KVStateMachine
from repro.metrics.collector import LatencyCollector
from repro.net.message import Envelope, EnvelopeBatch, global_registry
from repro.net.tcp import (
    TcpTransport, decode_frame_envelopes, encode_batch_frame, encode_frame,
)
from repro.net.transport import InMemoryNetwork
from repro.protocols.base import Broadcast, ClientReply, Send
from repro.protocols.records import CommandBatch
from repro.protocols.registry import create_replica
from repro.runtime.local import LocalAsyncCluster
from repro.sim.environment import SimulationEnvironment
from repro.storage.memory_log import InMemoryLog
from repro.types import Command, CommandId, Timestamp

from .loadgen import payload_pool
from .live import quiet_teardown
from .workloads import LAN3, LIVE, MAX_BATCH, PROTOCOLS, live_spec

REPEATS = 5


def per_call_us(fn: Callable[[], Any], number: int) -> float:
    """Median over ``REPEATS`` of the mean µs per call of *fn*."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) * 1e6 / number)
    return statistics.median(times)


def _commands(pool: list[bytes], count: int) -> list[Command]:
    return [Command(CommandId("iso", i + 1), pool[i % len(pool)]) for i in range(count)]


# -- net.wire / net.tcp ------------------------------------------------------


def wire_timers(pool: list[bytes], effort: Callable[[int], int]) -> dict[str, float]:
    commands = _commands(pool, MAX_BATCH)
    ts = Timestamp(1_700_000_000_000_000, 1)
    messages = {
        "prepare64": Prepare(CommandBatch(tuple(commands)), ts),
        "prepare1": Prepare(commands[0], ts),
        "prepareok": PrepareOk(ts, ts.micros + 17),
    }
    out: dict[str, float] = {}
    for name, message in messages.items():
        number = effort(40 if name == "prepare64" else 1000)
        data = global_registry.encode(message)
        out[f"net.wire.iso_encode_us.{name}"] = per_call_us(
            lambda: global_registry.encode(message), number
        )
        out[f"net.wire.iso_decode_us.{name}"] = per_call_us(
            lambda: global_registry.decode(data), number
        )
        out[f"net.wire.iso_bytes.{name}"] = float(len(data))

    def frame_round_trip(frame_of: Callable[[], bytes]) -> Callable[[], Any]:
        return lambda: decode_frame_envelopes(
            memoryview(frame_of())[4:], global_registry
        )

    batch = EnvelopeBatch.of([Envelope(0, 1, messages["prepareok"])] * MAX_BATCH)
    single = Envelope(0, 1, messages["prepare1"])
    out["net.tcp.iso_frame_us.batch64"] = per_call_us(
        frame_round_trip(lambda: encode_batch_frame(batch, global_registry)), effort(40)
    )
    out["net.tcp.iso_frame_us.single"] = per_call_us(
        frame_round_trip(lambda: encode_frame(single, global_registry)), effort(600)
    )
    return out


async def _loopback_msgs_per_s(count: int) -> float:
    """Stream PREPAREOKs between two real ``TcpTransport``s on 127.0.0.1."""
    options = BatchingOptions(max_batch=MAX_BATCH)
    sender = TcpTransport(0, "127.0.0.1:0", {}, batching=options)
    receiver = TcpTransport(1, "127.0.0.1:0", {}, batching=options)
    received = 0
    done = asyncio.Event()

    def on_envelope(_envelope: Envelope) -> None:
        nonlocal received
        received += 1
        if received == count:
            done.set()

    receiver.set_handler(on_envelope)
    sender.set_handler(lambda _envelope: None)
    await sender.start()
    await receiver.start()
    quiet_teardown(asyncio.get_running_loop(), [])
    try:
        sender.set_peers({1: receiver.bound_address})
        message = PrepareOk(Timestamp(1_700_000_000_000_000, 0), 1_700_000_000_000_017)
        start = time.perf_counter()
        for index in range(count):
            sender.send(Envelope(0, 1, message))
            if index % 256 == 255:
                await asyncio.sleep(0)  # let the per-tick coalescer flush
        await asyncio.wait_for(done.wait(), timeout=30.0)
        return count / (time.perf_counter() - start)
    finally:
        await sender.stop()
        await receiver.stop()


# -- protocol ----------------------------------------------------------------


class _TickingClock(Clock):
    """Strictly increasing readings, so no protocol step ever waits on time."""

    def __init__(self) -> None:
        self._now = 1_700_000_000_000_000

    def now(self) -> int:
        self._now += 1
        return self._now


def protocol_steps_per_s(protocol: str, pool: list[bytes], commands: int) -> float:
    """Sans-IO ceiling: replica steps/s with messages pumped synchronously.

    Three replicas on an ``InMemoryNetwork``; actions are performed the way
    the asyncio driver orders them (network sends first, self-deliveries
    after), timers are never armed, nothing touches a loop or a socket.
    """
    spec = ClusterSpec.from_sites(LAN3)
    network = InMemoryNetwork(auto_deliver=False)
    clock = _TickingClock()
    steps = replies = 0
    transports: dict[int, Any] = {}
    replicas: dict[int, Any] = {}

    def perform(rid: int, actions: list) -> None:
        nonlocal steps, replies
        steps += 1
        transport, replica = transports[rid], replicas[rid]
        to_self = []
        for action in actions:
            if isinstance(action, ClientReply):
                replies += 1
            elif isinstance(action, (Send, Broadcast)):
                targets = (
                    (action.dst,) if isinstance(action, Send)
                    else replica.broadcast_targets(action.include_self)
                )
                for dst in targets:
                    envelope = Envelope(rid, dst, action.message)
                    if dst == rid:
                        to_self.append(envelope)
                    else:
                        transport.send(envelope)
        for envelope in to_self:
            perform(rid, replica.on_message(rid, envelope.message))

    for rid in spec.replica_ids:
        transports[rid] = network.transport_for(rid)
        replicas[rid] = create_replica(
            protocol, rid, spec, clock=clock, log=InMemoryLog(),
            state_machine=KVStateMachine(), config=ProtocolConfig(leader=0),
        )
        transports[rid].set_handler(
            lambda envelope, rid=rid: perform(
                rid, replicas[rid].on_message(envelope.src, envelope.message)
            )
        )
    for rid in spec.replica_ids:
        replicas[rid].start()  # SetTimer actions dropped: no timers in the pump

    work = _commands(pool, commands)
    # Leader-based protocols take requests at the leader; the others rotate so
    # every Mencius coordinator keeps filling its own slots.
    leader_based = protocol.startswith("paxos")
    start = time.perf_counter()
    for index, command in enumerate(work):
        rid = 0 if leader_based else index % spec.size
        perform(rid, replicas[rid].on_client_request(command))
        network.deliver_all()
    elapsed = time.perf_counter() - start
    if replies != commands:
        raise RuntimeError(
            f"{protocol}: the pump committed {replies} of {commands} commands"
        )
    return steps / elapsed


# -- the rest ----------------------------------------------------------------


async def _single_node_us(pool: list[bytes], count: int) -> float:
    """Sequential ``submit`` on a one-replica cluster: the latency floor."""
    cluster = LocalAsyncCluster("clock-rsm", ClusterSpec.from_sites(["CA"]))
    await cluster.start()
    try:
        server = cluster.server_at("CA")
        work = _commands(pool, count)
        start = time.perf_counter()
        for command in work:
            await server.submit(command)
        return (time.perf_counter() - start) * 1e6 / count
    finally:
        await cluster.stop()


def _sim_events_per_s(count: int) -> float:
    env = SimulationEnvironment(seed=0)
    for index in range(count):
        env.schedule(index, lambda: None)
    start = time.perf_counter()
    env.run_until_idle()
    return count / (time.perf_counter() - start)


def run_all(seed: int, share: float) -> dict[str, tuple[float, int]]:
    """Every isolated timer, as ``name -> (value, repeats)``.

    *share* scales every iteration count (the smoke test runs at a tenth).
    """

    def effort(count: int) -> int:
        return max(1, int(count * share))

    pool = payload_pool(seed)
    values = wire_timers(pool, effort)
    values["net.tcp.iso_loopback_msgs_s"] = asyncio.run(_loopback_msgs_per_s(effort(20_000)))
    for protocol in PROTOCOLS:
        values[f"protocol.iso_steps_s.{protocol}"] = statistics.median(
            protocol_steps_per_s(protocol, pool, effort(1500)) for _ in range(3)
        )
    values["runtime.iso_single_node_us"] = asyncio.run(_single_node_us(pool, effort(2000)))

    machine = KVStateMachine()
    applies = effort(4000)
    commands = iter(_commands(pool, applies * REPEATS))
    values["kvstore.iso_apply_us"] = per_call_us(lambda: machine.apply(next(commands)), applies)
    values["sim.iso_events_s"] = statistics.median(
        _sim_events_per_s(effort(100_000)) for _ in range(3)
    )
    collector = LatencyCollector()
    values["metrics.iso_record_us"] = per_call_us(
        lambda: collector.record_span(0, 1_000, 9_000), effort(20_000)
    )
    spec_dict = live_spec(LIVE["wan5_open"], seed).to_dict()
    values["experiment.iso_spec_load_ms"] = per_call_us(
        lambda: ExperimentSpec.from_dict(spec_dict), effort(200)
    ) / 1e3
    return {name: (value, REPEATS) for name, value in values.items()}
