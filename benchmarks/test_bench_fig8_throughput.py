"""Figure 8 — throughput on a local cluster for 10/100/1000-byte commands.

Five replicas on a simulated LAN with the CPU/batching cost model, saturated
by window-based clients.  Reproduced shape (see docs/PERFORMANCE.md, "What
maps to which paper figure"): Clock-RSM and Mencius-bcast deliver similar throughput at every
command size, and both clearly beat Paxos and Paxos-bcast for large (1000 B)
commands, where the Paxos leader's per-byte work makes it the bottleneck.
The paper additionally measures Paxos ahead for small commands, an effect of
leader-side batching in its pipelined C++ implementation that the symmetric
cost model here does not reproduce (documented deviation).
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_throughput
from repro.bench.throughput import run_throughput_comparison
from repro.types import ms_to_micros


def test_bench_fig8_throughput(benchmark, report_sink):
    results = benchmark.pedantic(
        run_throughput_comparison,
        kwargs=dict(window=400_000, warmup=ms_to_micros(150.0), outstanding_per_replica=96),
        rounds=1,
        iterations=1,
    )
    report_sink("fig8_throughput", format_throughput(results, "Figure 8: throughput (kop/s)"))

    indexed = {(r.protocol, r.command_size): r.throughput_kops for r in results}

    for size in (10, 100, 1000):
        clock = indexed[("clock-rsm", size)]
        mencius = indexed[("mencius-bcast", size)]
        # Clock-RSM and Mencius-bcast are similar (same communication pattern;
        # Clock-RSM additionally broadcasts its own PREPAREOK, costing ~20%).
        assert clock == pytest.approx(mencius, rel=0.35)

    # Large commands: the Paxos leader is the bottleneck; Clock-RSM wins by
    # roughly the factor the paper reports (~2-3x).
    assert indexed[("clock-rsm", 1000)] > 1.8 * indexed[("paxos", 1000)]
    assert indexed[("clock-rsm", 1000)] > 1.8 * indexed[("paxos-bcast", 1000)]

    # Throughput decreases with command size for every protocol.
    for protocol in ("clock-rsm", "mencius-bcast", "paxos", "paxos-bcast"):
        assert indexed[(protocol, 10)] >= indexed[(protocol, 100)] >= indexed[(protocol, 1000)]
