"""Batching benchmark: ops/s vs batch size on both backends.

Without batching, one protocol round (and at least one wire message per
replica pair) is spent per command, so the asyncio backend's throughput is
capped by per-message overhead rather than by the protocol — exactly the
effect the paper's implementation avoids by batching commands (Fig. 8
assumes replicas amortize per-message cost).  This benchmark sweeps
``[batching] max_batch`` over 1 → 8 → 64 for clock-rsm and mencius under a
saturating window workload:

* **async** (the acceptance series): live event-loop throughput must be
  *strictly increasing* in batch size — the per-command Python/framing work
  is the bottleneck, and batching amortizes it;
* **sim** (trend parity): the same sweep under the CPU cost model must show
  the same monotone trend, confirming the discrete-event model and the live
  runtime agree on what batching buys.

Results go to ``benchmarks/results/BENCH_batching.json``.
"""

from __future__ import annotations

import json
import time

from repro.experiment import (
    BatchingSpec,
    CpuSpec,
    Deployment,
    ExperimentSpec,
    WorkloadSpec,
)

from conftest import RESULTS_DIR

SITES = ("S0", "S1", "S2")
BATCH_SIZES = (1, 8, 64)
PROTOCOLS = ("clock-rsm", "mencius")

#: Same heavier-than-default costs as the shard benchmark: a CPU-bound
#: saturation shape at a manageable simulated event volume.
CPU = CpuSpec(
    recv_fixed=12.0,
    recv_per_byte=0.012,
    send_fixed=12.0,
    send_per_byte=0.012,
    client_fixed=4.0,
)


def batched_spec(protocol: str, batch: int, backend: str) -> ExperimentSpec:
    """The sweep spec: saturating window, null app, tiny uniform delays."""
    sim = backend == "sim"
    return ExperimentSpec(
        name=f"batch-sweep-{backend}-{protocol}-{batch}",
        protocol=protocol,
        sites=SITES,
        latency="uniform",
        one_way_ms=0.1 if sim else 0.05,
        jitter_fraction=0.02 if sim else 0.0,
        workload=WorkloadSpec(
            scenario="saturating",
            outstanding_per_site=64,
            payload_size=64,
            app="null",
        ),
        cpu=CPU if sim else None,
        duration_s=0.15 if sim else 2.0,
        warmup_s=0.04 if sim else 0.5,
        seed=11,
        batching=BatchingSpec(max_batch=batch, window_us=0) if batch > 1 else None,
    )


def _sweep(backend: str, **options) -> dict[str, list[dict]]:
    series: dict[str, list[dict]] = {}
    for protocol in PROTOCOLS:
        points = []
        for batch in BATCH_SIZES:
            result = Deployment(
                batched_spec(protocol, batch, backend), backend=backend, **options
            ).run()
            point = {
                "max_batch": batch,
                "kops": round(result.throughput_kops, 1),
                "total_committed": result.total_committed,
            }
            # The driver's queue-wait/protocol split (async backend only):
            # sample-weighted means across replicas, attributing throughput
            # changes to time spent waiting for a batch slot vs. in rounds.
            splits = [
                m
                for m in result.replica_metrics.values()
                if "queue_wait_mean_us" in m
            ]
            if splits:
                samples = sum(m["split_samples"] for m in splits)
                point["queue_wait_us"] = round(
                    sum(m["queue_wait_mean_us"] * m["split_samples"] for m in splits)
                    / samples,
                    1,
                )
                point["protocol_us"] = round(
                    sum(m["protocol_mean_us"] * m["split_samples"] for m in splits)
                    / samples,
                    1,
                )
            points.append(point)
        for point in points:
            point["speedup"] = round(point["kops"] / points[0]["kops"], 2)
        series[protocol] = points
    return series


def test_bench_batching(report_sink):
    wall_start = time.perf_counter()

    async_series = _sweep("async", time_scale=1.0)
    sim_series = _sweep("sim")

    # The acceptance claim: live throughput strictly increases with batch
    # size (1 -> 8 -> 64) for both protocols ...
    for protocol, points in async_series.items():
        kops = {point["max_batch"]: point["kops"] for point in points}
        assert kops[1] < kops[8] < kops[64], (protocol, kops)

    # ... and the sim cost model shows the same monotone trend (parity with
    # its opportunistic-batching assumptions).
    for protocol, points in sim_series.items():
        kops = {point["max_batch"]: point["kops"] for point in points}
        assert kops[1] < kops[8] < kops[64], (protocol, kops)

    payload = {
        "name": "batching",
        "workload": "saturating, window 64/site, 64 B null ops",
        "batch_sizes": list(BATCH_SIZES),
        "series": {
            "async": async_series,
            "sim": sim_series,
        },
        "wall_s": round(time.perf_counter() - wall_start, 1),
    }
    (RESULTS_DIR / "BENCH_batching.json").write_text(json.dumps(payload, indent=2))

    lines = []
    for backend, series in (("async", async_series), ("sim", sim_series)):
        for protocol, points in series.items():
            row = "  ".join(
                f"b{point['max_batch']}:{point['kops']:.0f}kops(x{point['speedup']})"
                for point in points
            )
            lines.append(f"{backend:5s} {protocol:12s} {row}")
    report_sink("BENCH_batching", "\n".join(lines))
