"""What the backends share must behave the same on each of them.

* One ``FaultSpec`` tuple goes through ``FailureSchedule.from_spec`` on the
  simulator's timer and on the asyncio backend's, and must make the same
  cluster calls at the same spec times.
* One small spec runs on ``sim``, ``async`` and ``proc`` and must come back
  in the same result shape from ``build_result``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.experiment import Deployment, ExperimentSpec, FaultSpec, WorkloadSpec
from repro.experiment import spec as spec_module
from repro.experiment.async_backend import AsyncBackend
from repro.experiment.sim_backend import SimBackend
from repro.experiment.spec import FAULT_KINDS
from repro.sim.failures import FailureSchedule

FAULT_METHODS = ("crash", "recover", "partition", "heal", "isolate", "clock_jump")

#: Every kind a spec can express; sites CA, VA, IR are replicas 0, 1, 2.
FAULTS = (
    FaultSpec(kind="partition", at_s=0.10, site="CA", peer="VA", heal_at_s=0.30),
    FaultSpec(kind="isolate", at_s=0.15, site="IR", heal_at_s=0.35),
    FaultSpec(kind="crash", at_s=0.40, site="VA"),
    FaultSpec(kind="clock-jump", at_s=0.45, site="CA", offset_ms=20.0),
    FaultSpec(kind="recover", at_s=0.55, site="VA", rejoin=True),
    FaultSpec(kind="clock-jump", at_s=0.60, site="IR", offset_ms=-8.0),
    # Healed only after the run has ended: the heal must never fire.
    FaultSpec(kind="partition", at_s=0.65, site="CA", peer="IR", heal_at_s=5.0),
    FaultSpec(kind="isolate", at_s=0.70, site="VA"),
)

#: (spec-time µs, method, args, kwargs) in firing order.
EXPECTED = [
    (100_000, "partition", (0, 1), {}),
    (150_000, "partition", (2, 0), {}),
    (150_000, "partition", (2, 1), {}),
    (300_000, "heal", (0, 1), {}),
    (350_000, "heal", (2, 0), {}),
    (350_000, "heal", (2, 1), {}),
    (400_000, "crash", (1,), {}),
    (450_000, "clock_jump", (0, 20_000), {}),
    (550_000, "recover", (1,), {"rejoin": True}),
    (600_000, "clock_jump", (2, -8_000), {}),
    (650_000, "partition", (0, 2), {}),
    (700_000, "partition", (1, 0), {}),
    (700_000, "partition", (1, 2), {}),
]


def fault_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="fault-parity",
        protocol="clock-rsm",
        sites=("CA", "VA", "IR"),
        workload=WorkloadSpec(clients_per_site=1, think_time_max_ms=40.0),
        faults=FAULTS,
        duration_s=0.8,
        warmup_s=0.0,
        seed=3,
    )


def record_fault_calls(cluster, calls: list, now) -> None:
    """Replace *cluster*'s fault surface with recorders (nothing is injected)."""
    for method in FAULT_METHODS:
        setattr(
            cluster,
            method,
            lambda *args, _m=method, **kwargs: calls.append((now(), _m, args, kwargs)),
        )


class TestFaultScheduleParity:
    def test_the_faults_cover_every_kind(self):
        assert {fault.kind for fault in FAULTS} == set(FAULT_KINDS)

    def test_sim_timer_makes_the_expected_calls_at_spec_time(self):
        calls: list = []
        backend = SimBackend()
        run = backend.prepare(fault_spec())
        record_fault_calls(run.cluster, calls, lambda: run.cluster.now)
        run.cluster.run_for(run.spec.total_runtime_micros)
        backend.collect(run)
        assert calls == EXPECTED

    def test_async_timer_makes_the_same_calls_scaled_to_wall_time(self, monkeypatch):
        scale = 4.0
        calls: list = []
        build_cluster = AsyncBackend.build_cluster

        def recording_cluster(self, spec):
            loop = asyncio.get_running_loop()
            built_at = loop.time()
            cluster = build_cluster(self, spec)
            record_fault_calls(cluster, calls, lambda: loop.time() - built_at)
            return cluster

        monkeypatch.setattr(AsyncBackend, "build_cluster", recording_cluster)
        Deployment(fault_spec(), backend="async", time_scale=scale, submit_timeout=0.3).run()

        def spec_units(method, args):
            # Clock-jump deltas are durations too: divided on the way in.
            return (args[0], int(args[1] * scale)) if method == "clock_jump" else args

        assert [(m, spec_units(m, a), k) for _t, m, a, k in calls] == [
            (m, a, k) for _t, m, a, k in EXPECTED
        ]
        for (wall_s, *_rest), (at, *_expected) in zip(calls, EXPECTED):
            assert wall_s * scale >= at / 1_000_000 - 0.005  # a timer is never early

    def test_an_unknown_kind_is_a_configuration_error_not_a_silent_skip(self, monkeypatch):
        monkeypatch.setattr(spec_module, "FAULT_KINDS", FAULT_KINDS + ("teleport",))
        spec = ExperimentSpec(
            name="t",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            faults=(FaultSpec(kind="teleport", at_s=0.1, site="CA"),),
        )
        # (async rejects it at validation and proc rejects every [faults]
        # table: tests/test_async_faults.py, tests/test_launch_proc.py.)
        with pytest.raises(ConfigurationError, match="teleport"):
            FailureSchedule.from_spec(spec.faults, spec.cluster_spec())


class TestResultShape:
    def test_every_backend_returns_the_same_sites_and_fields(self):
        spec = ExperimentSpec(
            name="shape",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            workload=WorkloadSpec(clients_per_site=2, think_time_max_ms=20.0),
            cdf_sites=("VA",),
            duration_s=1.0,
            warmup_s=0.0,
            seed=9,
        )
        results = {
            "sim": Deployment(spec, backend="sim").run(),
            "async": Deployment(spec, backend="async", time_scale=5).run(),
            "proc": Deployment(spec, backend="proc", time_scale=1).run(),
        }
        shapes = {}
        for backend, result in results.items():
            data = result.to_dict()
            assert data["backend"] == backend
            assert data["total_committed"] == sum(
                site["committed"] for site in data["sites"].values()
            ) > 0
            shapes[backend] = {
                "top": sorted(set(data) - {"history"}),
                "sites": {site: sorted(fields) for site, fields in data["sites"].items()},
                "latency": sorted(data["sites"]["CA"]["latency"]),
                "replicas": sorted(data["replica_metrics"]),
            }
        assert shapes["sim"] == shapes["async"] == shapes["proc"]
        assert shapes["sim"]["sites"] == {
            "CA": ["committed", "latency", "replica_id", "site"],
            "VA": ["cdf_ms", "committed", "latency", "replica_id", "site"],
            "IR": ["committed", "latency", "replica_id", "site"],
        }
