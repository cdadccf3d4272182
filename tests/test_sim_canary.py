"""Golden fingerprints of the simulator's behaviour.

Each scenario below was run once on the commit *before* the simulator's event
path was rebuilt (tuple heap, one run loop, per-channel delay table) and its
fingerprint pasted here: events executed, commands committed, and the sha256
of the sorted commit latencies and of every replica's execution order.  Any
change to which events run, in what order, or at what virtual time changes a
fingerprint — so an engine optimisation that moves nothing keeps these green,
and one that moves anything fails in seconds.

Beyond ``perf``'s ``sim_geo5`` counts (five protocols, no faults, no CPU
model) this covers the partition-buffer / crash / recover paths of the
network, the ``CpuModel`` batch path of the node, and a lossy network whose
partitions drop.  The two ``batched_*`` scenarios pin the submission
accumulator; they were recorded on the commit before the simulator's own
accumulator gave way to :class:`~repro.net.batching.BatchAccumulator`.

To re-record after an *intended* behaviour change, run
``PYTHONPATH=src python tests/test_sim_canary.py`` and paste its output.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import pytest

from repro.experiment.sim_backend import SimBackend
from repro.experiment.spec import (
    BatchingSpec, CpuSpec, ExperimentSpec, FaultSpec, WorkloadSpec,
)
from repro.sim.network import NetworkOptions
from repro.types import Command, CommandId

from tests.helpers import ALL_PROTOCOLS, make_cluster, submit_at

GEO5 = ("CA", "VA", "IR", "JP", "SG")


def _geo5(protocol: str, **overrides) -> ExperimentSpec:
    fields = dict(
        name=f"canary/{protocol}",
        protocol=protocol,
        sites=GEO5,
        leader_site="CA" if protocol.startswith("paxos") else None,
        jitter_fraction=0.02,
        workload=WorkloadSpec(scenario="balanced", clients_per_site=6, app="kv"),
        warmup_s=0.5,
        duration_s=1.5,
        seed=11,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


SPECS: dict[str, ExperimentSpec] = {p: _geo5(p) for p in ALL_PROTOCOLS}
SPECS["faults"] = _geo5(
    "clock-rsm",
    name="canary/faults",
    warmup_s=0.0,
    duration_s=2.4,
    workload=WorkloadSpec(
        scenario="balanced", clients_per_site=4, payload_size=32,
        think_time_max_ms=40.0, app="kv",
    ),
    faults=(
        FaultSpec(kind="partition", at_s=0.4, site="JP", peer="SG", heal_at_s=1.1),
        FaultSpec(kind="crash", at_s=0.8, site="IR"),
        FaultSpec(kind="recover", at_s=1.6, site="IR", rejoin=True),
    ),
)
SPECS["cpu"] = _geo5(
    "clock-rsm",
    name="canary/cpu",
    sites=("CA", "VA", "IR"),
    latency="uniform",
    one_way_ms=0.05,
    jitter_fraction=0.1,
    warmup_s=0.01,
    duration_s=0.02,
    workload=WorkloadSpec(
        scenario="balanced", clients_per_site=40, payload_size=100,
        think_time_max_ms=0.0, app="kv",
    ),
    cpu=CpuSpec(),
)
for _window in (0, 300):
    # Saturating clients behind the submission accumulator: ``window_us = 0``
    # flushes each virtual instant's submissions together, ``300`` arms the
    # window timer and cancels it whenever ``max_batch`` fills first.
    SPECS[f"batched_w{_window}"] = _geo5(
        "clock-rsm",
        name=f"canary/batched_w{_window}",
        sites=("CA", "VA", "IR"),
        latency="uniform",
        one_way_ms=0.5,
        warmup_s=0.01,
        duration_s=0.05,
        workload=WorkloadSpec(
            scenario="saturating", outstanding_per_site=20, payload_size=16, app="kv",
        ),
        batching=BatchingSpec(max_batch=8, window_us=_window),
    )


def _run_spec(spec: ExperimentSpec):
    run = SimBackend().prepare(spec)
    run.cluster.run_for(spec.total_runtime_micros)
    return run.cluster, run.handle.collector.all_latencies_micros()


def _run_lossy():
    """Paxos on a lossy, floor-jittered network whose partitions *drop*: the
    loss draws interleave with the jitter draws on one random stream."""
    cluster = make_cluster(
        "paxos",
        GEO5,
        seed=5,
        network_options=NetworkOptions(
            jitter_fraction=0.05, jitter_floor=40, loss_probability=0.02,
            partition_mode="drop",
        ),
    )
    for index in range(400):
        submit_at(cluster, 2_000 * index, index % 5, Command(CommandId("canary", index), b"x" * 16)
        )
    cluster.env.schedule_at(200_000, lambda: cluster.partition(0, 3))
    cluster.env.schedule_at(500_000, lambda: cluster.heal(0, 3))
    cluster.run_for(1_500_000)
    return cluster, [reply.time for reply in cluster.replies]


SCENARIOS: dict[str, Callable] = {
    name: (lambda spec=spec: _run_spec(spec)) for name, spec in SPECS.items()
}
SCENARIOS["lossy"] = _run_lossy

#: name -> (events executed, commits, sha256(sorted latencies), sha256(orders))
GOLDEN: dict[str, tuple[int, int, str, str]] = {
    "clock-rsm": (13329, 216, "b8d0e32e287d6e3f", "115004e3bd150c64"),
    "paxos": (3105, 154, "d1b7a5c7b35bf28d", "ae5563987bae36cd"),
    "paxos-bcast": (5834, 191, "6701e36983c61476", "7ab86cd796551d67"),
    "mencius": (2556, 117, "392adabd4aef41e6", "08483ded7392b8cf"),
    "mencius-bcast": (5883, 190, "e331411b03b1c6b2", "f77daf4ee2bf9234"),
    "faults": (9235, 82, "03d493a1443e061f", "8d1b561ce8661552"),
    "cpu": (51718, 3699, "2c0985cf56cf14a9", "476542e153a71c13"),
    "batched_w0": (5081, 2940, "8e6f0eed1ea124bd", "d9b652d290444c58"),
    "batched_w300": (4650, 2784, "4f2bafca67190a0d", "92731a7afa3d37e9"),
    "lossy": (4528, 30, "8a0b1c58a494912c", "db472f6e82a51d24"),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def fingerprint(name: str) -> tuple[int, int, str, str]:
    cluster, latencies = SCENARIOS[name]()
    orders = sorted(cluster.execution_orders().items())
    # Client names carry a process-wide pool counter, so they depend on which
    # tests ran before: number the clients by first appearance instead.
    clients: dict[str, int] = {}
    return (
        cluster.env.scheduler.executed_count,
        len(latencies),
        _digest(sorted(latencies)),
        _digest([
            (rid, [(clients.setdefault(cid.client, len(clients)), cid.seqno) for cid in order])
            for rid, order in orders
        ]),
    )


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_fingerprint_matches_the_recorded_one(name):
    observed = fingerprint(name)
    assert observed[1] > 0, "the scenario committed nothing; it guards nothing"
    assert observed == GOLDEN[name]


if __name__ == "__main__":
    for scenario in SCENARIOS:
        print(f"    {scenario!r}: {fingerprint(scenario)!r},")
