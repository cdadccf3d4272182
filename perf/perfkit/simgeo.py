"""``sim_geo5``: the discrete-event simulator over all five protocols."""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.experiment.sim_backend import SimBackend

from . import checks
from .live import layer_values
from .stats import PROBES, at_reference, host_speed, percentile
from .tracing import Tracer, peak_rss_mb, trace_replica
from .workloads import GEO5, HOST_SCALED, PROTOCOLS, Plan, model_excess, sim_spec


def sim_prepare(seed: int, warmup_s: float, duration_s: float,
                tracer: Optional[Tracer] = None) -> dict[str, Any]:
    """Five clusters with workload and history capture armed (the set-up)."""
    backend = SimBackend()
    prepared = {
        p: backend.prepare(sim_spec(p, seed, warmup_s, duration_s)) for p in PROTOCOLS
    }
    if tracer is not None:
        for run in prepared.values():
            for node in run.cluster.nodes.values():
                trace_replica(tracer, node.replica)
    return prepared


def sim_pass(prepared: dict[str, Any]) -> dict[str, Any]:
    """Each prepared protocol through the simulator in turn.  Virtual-time
    results are a pure function of the seed and durations (the canary)."""
    backend = SimBackend()
    out: dict[str, Any] = {}
    for protocol, run in prepared.items():
        cluster, collector = run.cluster, run.handle.collector
        # The run in PROBES chunks of virtual time — the same events in the
        # same order as one run_for — with host speed read between them,
        # outside what is timed.
        total = run.spec.total_runtime_micros
        wall = cpu = 0.0
        events = 0
        speeds = [host_speed()]
        for index in range(1, PROBES + 1):
            started, cpu_started = time.perf_counter(), time.process_time()
            events += cluster.env.run_until(total * index // PROBES)
            wall += time.perf_counter() - started
            cpu += time.process_time() - cpu_started
            speeds.append(host_speed())
        site_of = {r.replica_id: r.site for r in cluster.spec.replicas}
        measured = {
            "events": events,
            "commits": collector.count(),
            "wall_s": wall,
            "cpu_s": cpu,
            "speeds": speeds,
            "latencies_us": sorted(collector.all_latencies_micros()),
            "site_median_ms": {
                site: percentile(sorted(collector.latencies_micros(rid)), 0.5) / 1e3
                for rid, site in site_of.items() if collector.count(rid)
            },
        }
        # Drain, untimed: stop the clients and let in-flight commands finish so
        # "never replied" means lost, not cut off by the end of the run.
        run.handle.stop()
        cluster.env.run_for(2_000_000)
        result = backend.collect(run)
        replicas = cluster.replicas()
        quiesced = len({r.executed_count for r in replicas}) == 1
        measured.update(
            history=result.history,
            orders=cluster.execution_orders(),
            snapshots=(
                {r.replica_id: r.state_machine.snapshot() for r in replicas}
                if quiesced else None
            ),
            msgs=cluster.network.sent_count,
            bytes=cluster.network.bytes_sent,
            replies=len(cluster.replies),
        )
        out[protocol] = measured
    return out


def run_sim(plan: Plan) -> dict[str, Any]:
    scale = plan.seconds / 12.0
    warmup_s = 2.0 * scale
    duration_s = (25.0 / 6.0 if plan.trace else 10.0) * scale
    tracer = Tracer() if plan.trace else None
    prepared = sim_prepare(plan.seed, warmup_s, duration_s, tracer)
    result: dict[str, Any] = {
        "setup_s": time.perf_counter() - plan.child_start,
        "event_loop": "none (discrete-event)",
        "teardown_errors": 0,
    }
    result["setup_s"] = at_reference(
        {"setup_s": (result["setup_s"], 1)}, HOST_SCALED[plan.workload], [host_speed()]
    )["setup_s"]
    if plan.setup_only:
        return result

    runs = sim_pass(prepared)
    problems: list[str] = []
    attempted = failed = 0
    window_start = int(warmup_s * 1e6)
    window_end = window_start + int(duration_s * 1e6)
    for protocol, run in runs.items():
        if plan.corrupt:
            order = run["orders"][0]
            order[0], order[1] = order[1], order[0]
            run["history"].record_apply_orders(run["orders"])
        acked = [(op.command_id, op.replica_id) for op in run["history"] if op.completed]
        problems += [
            f"{protocol}: {p}"
            for p in checks.verify(run["orders"], acked, run["snapshots"])
        ]
        in_window = [
            op for op in run["history"] if window_start <= op.invoked_at < window_end
        ]
        attempted += len(in_window)
        failed += sum(1 for op in in_window if not op.completed)
    check_problems, check_rate, check_passes = checks.timed_check(
        [run["history"] for run in runs.values()], plan.seconds / 4.0
    )
    problems += check_problems

    commits = sum(run["commits"] for run in runs.values())
    events = sum(run["events"] for run in runs.values())
    wall = sum(run["wall_s"] for run in runs.values())
    cpu = sum(run["cpu_s"] for run in runs.values())
    rsm = runs["clock-rsm"]
    if not commits or not rsm["latencies_us"]:
        problems.append("the simulator committed nothing inside the window")
        rsm["latencies_us"] = rsm["latencies_us"] or [0]
    p50_ms = percentile(rsm["latencies_us"], 0.5) / 1e3
    p99_ms = percentile(rsm["latencies_us"], 0.99) / 1e3
    values: dict[str, tuple] = at_reference(
        {
            "throughput_ops_s": (commits / wall, commits),
            "commit_p50_ms": (p50_ms, rsm["commits"]),  # virtual time: exact per seed
            "commit_p99_ms": (p99_ms, rsm["commits"]),
            "cpu_ms_per_op": (cpu * 1e3 / max(commits, 1), commits),
            "check_ops_s": (check_rate, check_passes),
        },
        HOST_SCALED[plan.workload], [s for run in runs.values() for s in run["speeds"]],
    )
    values.update({
        "tail.commit_p99_ms": (p99_ms, rsm["commits"]),
        "tail.commit_p999_ms": (percentile(rsm["latencies_us"], 0.999) / 1e3, rsm["commits"]),
        "proc.peak_rss_mb": (peak_rss_mb(), 1),
    })
    if tracer is not None:
        replies = max(sum(run["replies"] for run in runs.values()), 1)
        layers = layer_values(tracer.snapshot(), replies, 0.0)
        for name in ("protocol.self_us_per_op", "protocol.steps_per_op",
                     "kvstore.apply_us_per_op", "storage.append_us_per_op"):
            values[name] = layers[name]
        in_replicas = tracer.totals["protocol"][1]
        values.update({
            "sim.events_per_op": (events / max(commits, 1), events),
            "sim.events_per_wall_s": (events / wall, events),
            "sim.dispatch_self_us_per_event": ((wall - in_replicas) * 1e6 / events, events),
            "sim.msgs_per_op": (sum(r["msgs"] for r in runs.values()) / replies, replies),
            "sim.bytes_per_op": (sum(r["bytes"] for r in runs.values()) / replies, replies),
        })
        for protocol, run in runs.items():
            values[f"protocols.{protocol}.commits_per_wall_s"] = (
                run["commits"] / run["wall_s"], run["commits"],
            )
            values[f"protocols.{protocol}.commit_p50_ms"] = (
                percentile(run["latencies_us"] or [0], 0.5) / 1e3, run["commits"],
            )
        values.update(model_excess(GEO5, rsm["site_median_ms"]))
        if plan.trace_path:
            tracer.write_raw(plan.trace_path)
    result.update(
        correct=not problems, problems=problems, attempted=attempted, failed=failed,
        values=values, flags=[],
        counts={p: {"events": r["events"], "commits": r["commits"]} for p, r in runs.items()},
    )
    return result
