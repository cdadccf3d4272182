"""The four live workloads: one cluster, one event loop, one generator.

Clusters are built through public constructors only; the tracer (if any) is
installed on the built objects, never on classes.
"""

from __future__ import annotations

import asyncio
import gc
import time
from typing import Any, Optional

from repro.experiment import ExperimentSpec
from repro.experiment.async_backend import AsyncBackend
from repro.kvstore.kv import KVStateMachine
from repro.net.message import global_registry
from repro.net.tcp import TcpTransport
from repro.runtime.server import ReplicaServer
from repro.storage.memory_log import InMemoryLog

from . import checks
from .loadgen import Load, OpSample, payload_pool
from .stats import PROBES, at_reference, host_speed, percentile
from .tracing import GcWatch, TimedRegistry, Tracer, delta, peak_rss_mb, trace_server
from .workloads import (
    HOST_SCALED, LIVE, MAX_BATCH, LiveWorkload, Plan, live_spec, model_excess,
)


# ---------------------------------------------------------------------------
# Cluster construction (public constructors only)
# ---------------------------------------------------------------------------


class _Cluster:
    """Servers by site plus how to stop them, for either transport."""

    def __init__(self, servers: dict[str, ReplicaServer], stop) -> None:
        self.servers = servers
        self.stop = stop

    def replicas(self) -> dict[int, Any]:
        return {s.replica_id: s.replica for s in self.servers.values()}


async def _build_loop_cluster(spec: ExperimentSpec) -> _Cluster:
    cluster = AsyncBackend().build_cluster(spec)
    await cluster.start()
    return _Cluster({site: cluster.server_at(site) for site in spec.sites}, cluster.stop)


async def _build_tcp_cluster(spec: ExperimentSpec, registry: Any) -> _Cluster:
    """The same servers as the in-loop cluster, each on a real loopback socket."""
    cluster_spec = spec.cluster_spec()
    options = spec.batching.options()
    servers: dict[str, ReplicaServer] = {}
    for replica in cluster_spec.replicas:
        transport = TcpTransport(
            replica.replica_id, "127.0.0.1:0", {}, registry, batching=options
        )
        servers[replica.site] = ReplicaServer(
            spec.protocol,
            replica.replica_id,
            cluster_spec,
            KVStateMachine(),
            transport=transport,
            log=InMemoryLog(),
            protocol_config=spec.protocol_config(),
            registry=registry,
            batching=options,
        )
    # Listen everywhere before any driver starts: a started Clock-RSM replica
    # broadcasts CLOCKTIME within Δ and drops sends to unknown peers.
    for server in servers.values():
        await server.transport.start()
    addresses = {s.replica_id: s.transport.bound_address for s in servers.values()}
    for server in servers.values():
        server.transport.set_peers(
            {rid: a for rid, a in addresses.items() if rid != server.replica_id}
        )
    for server in servers.values():
        await server.start()

    async def stop() -> None:
        for server in servers.values():
            await server.stop()

    return _Cluster(servers, stop)


# ---------------------------------------------------------------------------
# Live workloads
# ---------------------------------------------------------------------------


def quiet_teardown(loop: asyncio.AbstractEventLoop, errors: list[str]) -> None:
    """Collect in *errors* what asyncio reports from now until the loop closes.

    ``TcpTransport.stop()`` leaves cancelled connection handlers behind that
    asyncio reports as "Exception in callback ... CancelledError"; the runs
    count them (README, "known findings") instead of printing a dozen
    tracebacks over the result.  Call when teardown starts, not before.
    """
    loop.set_exception_handler(
        lambda _loop, context: errors.append(str(context.get("message")))
    )


async def _quiesce(cluster: _Cluster, deadline_s: float = 5.0) -> Optional[dict[int, bytes]]:
    """Snapshots taken at an instant when every replica has executed the same
    number of commands, or ``None`` if that never happened before the deadline."""
    give_up = time.perf_counter() + deadline_s
    replicas = cluster.replicas()
    while True:
        if len({len(r.execution_order) for r in replicas.values()}) == 1:
            return {rid: r.state_machine.snapshot() for rid, r in replicas.items()}
        if time.perf_counter() > give_up:
            return None
        await asyncio.sleep(0.02)


async def _live(plan: Plan, workload: LiveWorkload, teardown_errors: list[str]) -> dict[str, Any]:
    loop = asyncio.get_running_loop()
    tracer = Tracer() if plan.trace else None
    spec = live_spec(workload, plan.seed)
    if workload.tcp:
        registry = TimedRegistry(global_registry, tracer) if tracer else global_registry
        cluster = await _build_tcp_cluster(spec, registry)
    else:
        cluster = await _build_loop_cluster(spec)
    if tracer is not None:
        for server in cluster.servers.values():
            trace_server(tracer, server)
    load = Load(plan.seed, payload_pool(plan.seed))
    # Set-up ends when every site has committed one command of its own.
    await asyncio.gather(*(
        load.run_op(
            server, load.client(f"{site}/setup", server.replica_id), 1, index,
            time.perf_counter(),
        )
        for index, (site, server) in enumerate(cluster.servers.items())
    ))
    out: dict[str, Any] = {
        "setup_s": time.perf_counter() - plan.child_start,
        "event_loop": type(loop).__module__,
    }
    scaled = HOST_SCALED[plan.workload]
    if scaled:
        # Read once set-up is over, outside what it times.
        out["setup_speed"] = [host_speed()]

    async def teardown() -> None:
        quiet_teardown(loop, teardown_errors)
        await cluster.stop()

    if plan.setup_only:
        await teardown()
        return out

    if tracer is not None:
        # Zero-load hold: what an idle cluster burns (CLOCKTIME every Δ).
        hold = plan.seconds / 6.0
        cpu, wall = time.process_time(), time.perf_counter()
        await asyncio.sleep(hold)
        out["idle_cpu_share"] = (time.process_time() - cpu) / (time.perf_counter() - wall)

    with GcWatch() as gc_watch:
        # The window is the scheduled one, so what counts as inside it does
        # not depend on how late this coroutine wakes.
        began = time.perf_counter()
        window = (began + plan.warmup_s, began + plan.warmup_s + plan.seconds)
        if workload.open_rate is None:
            load.start_closed(cluster.servers, plan.clients)
        else:
            load.start_open(
                cluster.servers, workload.open_rate, began, (plan.warmup_s, plan.seconds)
            )
        # Process CPU time and (traced pass) the tracer's totals at the
        # window's two ends; where a timing is scaled by it, host speed at
        # PROBES + 1 instants across the window.
        speeds: list[tuple[float, float]] = []
        traced: list[dict[str, Any]] = []
        probe_cpu = 0.0
        instants = PROBES if scaled else 1
        for index in range(instants + 1):
            await asyncio.sleep(
                window[0] + index * plan.seconds / instants - time.perf_counter()
            )
            if index == 0:
                cpu_start = time.process_time()
                if tracer is not None:
                    traced.append(tracer.snapshot())
            if scaled:
                spent = time.process_time()
                speeds.append(host_speed())
                probe_cpu += time.process_time() - spent
        # Nothing of the system runs during a reading, so taking the readings'
        # CPU off leaves the system's over the window.
        cpu_s = time.process_time() - cpu_start - probe_cpu
        if tracer is not None:
            traced.append(tracer.snapshot())
        await load.drain()
    snapshots = await _quiesce(cluster)
    orders = {rid: list(r.execution_order) for rid, r in cluster.replicas().items()}
    await teardown()

    out.update(
        load=load, orders=orders, snapshots=snapshots,
        window=window, cpu_s=cpu_s, speeds=speeds,
        gc_pause_ms_max=gc_watch.pause_max_s * 1e3, gc_gen2_count=gc_watch.gen2_count,
    )
    if tracer is not None:
        out["traced"] = delta(*traced)
        out["tracer"] = tracer
    return out


def run_live(plan: Plan) -> dict[str, Any]:
    workload = LIVE[plan.workload]
    teardown_errors: list[str] = []
    raw = asyncio.run(_live(plan, workload, teardown_errors))
    # The system has stopped; collecting while the analysis allocates would
    # only rescan the run's heap over and over.
    gc.disable()
    result: dict[str, Any] = {
        "setup_s": at_reference(
            {"setup_s": (raw["setup_s"], 1)}, HOST_SCALED[plan.workload],
            raw.get("setup_speed", ()),
        )["setup_s"],
        "event_loop": raw["event_loop"],
        "teardown_errors": len(teardown_errors),
    }
    if plan.setup_only:
        return result

    samples: list[OpSample] = raw["load"].samples()
    orders = raw["orders"]
    if plan.corrupt:
        order = orders[0]
        order[0], order[1] = order[1], order[0]
    start, end = raw["window"]
    attempted = [s for s in samples if start <= s.due < end]
    failed = sum(1 for s in attempted if s.replied is None)
    done = [s for s in attempted if s.replied is not None and s.replied <= end]
    ops = len(done)
    latencies = sorted(s.replied - s.due for s in done)
    lateness = sorted(s.sent - s.due for s in done)

    problems = checks.verify(
        orders,
        ((s.command_id, s.replica_id) for s in samples if s.replied is not None),
        raw["snapshots"],
    )
    history = checks.build_history(samples, orders, plan.child_start)
    # Park everything built so far in the permanent generation: the checker is
    # timed on its own allocations, not on rescanning the run's heap.
    gc.enable()
    gc.collect()
    gc.freeze()
    check_problems, check_rate, check_passes = checks.timed_check(
        [history], plan.seconds / 12.0
    )
    problems += check_problems
    if not done:
        problems.append("no operation was submitted and replied inside the window")
        latencies = lateness = [0.0]

    flags = []
    late_p99_ms = percentile(lateness, 0.99) * 1e3
    if workload.wan and late_p99_ms > 5.0:
        flags.append("generator_late")
    p99_ms = percentile(latencies, 0.99) * 1e3
    # Every timing is over the whole window.
    values: dict[str, tuple] = at_reference(
        {
            "throughput_ops_s": (ops / (end - start), ops),
            "commit_p50_ms": (percentile(latencies, 0.50) * 1e3, ops),
            "commit_p99_ms": (p99_ms, ops),
            "cpu_ms_per_op": (raw["cpu_s"] * 1e3 / max(ops, 1), ops),
            "check_ops_s": (check_rate, check_passes),
        },
        HOST_SCALED[plan.workload], raw["speeds"],
    )
    values.update({
        "tail.commit_p99_ms": (p99_ms, ops),
        "tail.commit_p999_ms": (percentile(latencies, 0.999) * 1e3, ops),
        "gen.late_p99_ms": (late_p99_ms if workload.open_rate else 0.0, ops),
        "proc.gc_pause_ms_max": (raw["gc_pause_ms_max"], raw["gc_gen2_count"]),
        "proc.gc_gen2_count": (raw["gc_gen2_count"], 1),
        "proc.peak_rss_mb": (peak_rss_mb(), 1),
    })
    if plan.trace:
        values.update(layer_values(raw["traced"], ops, raw["cpu_s"]))
        values["protocol.idle_cpu_share"] = (raw["idle_cpu_share"], 1)
        if workload.wan:
            values.update(model_excess(workload.sites, _site_medians_ms(workload.sites, done)))
        sizes = raw["traced"]["unit_sizes"]
        if workload.open_rate is None and sizes.get(MAX_BATCH, 0) > 0.9 * sum(sizes.values()):
            # Every unit exactly full: the clients have locked into waves of
            # max_batch and throughput is bimodal (README, "lockstep").
            flags.append("lockstep")
        tracer: Tracer = raw["tracer"]
        for s in done:
            tracer.add_span("client", s.due, s.replied, s.command_id)
        if plan.trace_path:
            tracer.write_raw(plan.trace_path)
    result.update(
        correct=not problems, problems=problems, attempted=len(attempted),
        failed=failed, values=values, flags=flags,
    )
    return result


def _site_medians_ms(sites: tuple[str, ...], done: list[OpSample]) -> dict[str, float]:
    # ClusterSpec.from_sites assigns replica ids in site order.
    per_site: dict[str, list[float]] = {}
    for s in done:
        per_site.setdefault(sites[s.replica_id], []).append(s.replied - s.due)
    return {
        site: percentile(sorted(values), 0.5) * 1e3 for site, values in per_site.items()
    }


#: Span names whose self times are the per-layer CPU budget of a live run.
_BUDGET_SPANS = (
    "net.wire.encode", "net.wire.decode", "runtime.driver", "protocol", "kvstore", "storage",
)


def layer_values(traced: dict[str, Any], ops: int, cpu_s: float) -> dict[str, tuple]:
    """Per-layer metrics of one traced window, per operation replied in it."""
    ops = max(ops, 1)
    totals, counts = traced["totals"], traced["counts"]
    zero = (0, 0.0, 0.0)

    def calls(name: str) -> float:
        return totals.get(name, zero)[0]

    def self_us(name: str) -> float:
        return totals.get(name, zero)[2] * 1e6 / ops

    wire_calls = calls("net.wire.encode") + calls("net.wire.decode")
    frames = counts.get("frames", 0)
    units = sum(traced["unit_sizes"].values())
    unit_ops = sum(size * n for size, n in traced["unit_sizes"].items())
    budget = sum(self_us(name) for name in _BUDGET_SPANS)
    values = {
        "net.wire.encode_us_per_op": (self_us("net.wire.encode"), calls("net.wire.encode")),
        "net.wire.decode_us_per_op": (self_us("net.wire.decode"), calls("net.wire.decode")),
        "net.wire.calls_per_op": (wire_calls / ops, wire_calls),
        "net.wire.bytes_per_op": (counts.get("wire_bytes", 0) / ops, frames),
        "net.tcp.frames_per_op": (frames / ops, frames),
        "net.tcp.msgs_per_frame": (counts.get("frame_msgs", 0) / max(frames, 1), frames),
        "net.transport.msgs_per_op": (counts.get("msgs", 0) / ops, counts.get("msgs", 0)),
        "net.batching.ops_per_unit": (unit_ops / max(units, 1), units),
        "runtime.driver.self_us_per_op": (self_us("runtime.driver"), calls("runtime.driver")),
        "protocol.self_us_per_op": (self_us("protocol"), calls("protocol")),
        "protocol.steps_per_op": (calls("protocol") / ops, calls("protocol")),
        "kvstore.apply_us_per_op": (self_us("kvstore"), calls("kvstore")),
        "storage.append_us_per_op": (self_us("storage"), calls("storage")),
        # asyncio, futures, the server's deadline heap, the client tasks.
        "loop.other_us_per_op": (cpu_s * 1e6 / ops - budget, ops),
    }
    for kind in ("Prepare", "PrepareOk", "ClockTime"):
        sent = counts.get("msgs." + kind, 0)
        values[f"net.transport.msgs_per_op.{kind}"] = (sent / ops, sent)
    return values
