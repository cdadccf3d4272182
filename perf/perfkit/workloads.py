"""The five named workloads.  Names are the contract; later issues cite them.

All live workloads share one configuration and differ in exactly one thing
each (see ``perf/README.md`` for why each exists):

===============  ==========  ===========  =========================
name             sites       transport    load
===============  ==========  ===========  =========================
``wan5_open``    5, EC2 WAN  in-loop      open, 40 ops/s/site
``lan3_closed``  3, 0 delay  in-loop      closed, 100 clients/site
``tcp3_closed``  3           real TCP     closed, 100 clients/site
``tcp3_open``    3           real TCP     open, 200 ops/s/site
===============  ==========  ===========  =========================

``sim_geo5`` runs the discrete-event simulator over all five protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.latency_model import protocol_latency
from repro.experiment import BatchingSpec, ExperimentSpec, WorkloadSpec

MAX_BATCH = 64
_CLOSED = ("setup_s", "throughput_ops_s", "commit_p50_ms", "commit_p99_ms", "cpu_ms_per_op")
#: The end-to-end timings this process's own computing sets, per workload:
#: they are reported at reference host speed (``stats.at_reference``).  As
#: observed stay what injected delay sets (all of ``wan5_open``: its processor
#: idles three quarters of the time, its set-up waits for a WAN round trip,
#: and scaling spread its numbers), what the generator's schedule sets (an open
#: loop's rate) and virtual time (``sim_geo5`` latency).
HOST_SCALED = {
    "wan5_open": (),
    "lan3_closed": _CLOSED,
    "tcp3_closed": _CLOSED,
    "tcp3_open": ("setup_s", "commit_p50_ms", "commit_p99_ms", "cpu_ms_per_op"),
    "sim_geo5": ("setup_s", "throughput_ops_s", "cpu_ms_per_op"),
}
GEO5 = ("CA", "VA", "IR", "JP", "SG")
LAN3 = ("CA", "VA", "IR")
PROTOCOLS = ("clock-rsm", "paxos", "paxos-bcast", "mencius", "mencius-bcast")


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    sites: tuple[str, ...]
    wan: bool  #: inject the EC2 one-way matrix (in-loop transport only)
    tcp: bool  #: real ``TcpTransport`` on 127.0.0.1 instead of in-loop delivery
    open_rate: Optional[float]  #: ops/s/site of the open loop; ``None`` = closed


LIVE = {
    w.name: w
    for w in (
        LiveWorkload("wan5_open", GEO5, wan=True, tcp=False, open_rate=40.0),
        LiveWorkload("lan3_closed", LAN3, wan=False, tcp=False, open_rate=None),
        LiveWorkload("tcp3_closed", LAN3, wan=False, tcp=True, open_rate=None),
        LiveWorkload("tcp3_open", LAN3, wan=False, tcp=True, open_rate=200.0),
    )
}


@dataclass(frozen=True)
class Plan:
    """What one child process is asked to do."""

    workload: str
    seed: int
    seconds: float  #: the timed window (live) / the run's time scale (sim)
    trace: bool
    clients: int  #: closed-loop population per site
    child_start: float  #: ``perf_counter`` before ``import repro``
    setup_only: bool = False
    corrupt: bool = False  #: smoke-test hook: swap two entries of one apply order
    trace_path: Optional[str] = None

    @property
    def warmup_s(self) -> float:
        return self.seconds / 4.0


def live_spec(workload: LiveWorkload, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=workload.name,
        protocol="clock-rsm",
        sites=workload.sites,
        latency="ec2" if workload.wan else "uniform",
        one_way_ms=0.0,
        workload=WorkloadSpec(scenario="saturating", app="kv", payload_size=64),
        batching=BatchingSpec(max_batch=MAX_BATCH, window_us=0),
        seed=seed,
    )


def sim_spec(protocol: str, seed: int, warmup_s: float, duration_s: float) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"sim_geo5/{protocol}",
        protocol=protocol,
        sites=GEO5,
        leader_site="CA" if protocol.startswith("paxos") else None,
        jitter_fraction=0.02,
        workload=WorkloadSpec(scenario="balanced", clients_per_site=20, app="kv"),
        warmup_s=warmup_s,
        duration_s=duration_s,
        seed=seed,
        record_history=True,
    )


def model_excess(sites: tuple[str, ...], median_ms: dict[str, float]) -> dict[str, tuple]:
    """Measured site median minus the paper's closed form (Table II)."""
    matrix = ExperimentSpec(name="model", protocol="clock-rsm", sites=sites).latency_matrix()
    return {
        f"analysis.model_excess_ms.{site}": (
            median_ms[site] - protocol_latency("clock-rsm", matrix, index) / 1e3, 1,
        )
        for index, site in enumerate(sites)
        if site in median_ms
    }
