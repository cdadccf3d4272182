"""Tests for the backend-agnostic Deployment runner.

Includes the sim-vs-async parity smoke test: the same declarative spec runs
end-to-end on both backends and commits commands at every site, and the
shipped sample spec files execute through the ``repro run`` CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiment import (
    BACKENDS,
    CpuSpec,
    Deployment,
    ExperimentSpec,
    FaultSpec,
    WorkloadSpec,
    run_comparison,
)

SPECS_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"

#: A deliberately small deployment so backend tests stay fast.
SMALL = ExperimentSpec(
    name="small",
    protocol="clock-rsm",
    sites=("CA", "VA", "IR"),
    workload=WorkloadSpec(clients_per_site=4, think_time_max_ms=40.0),
    duration_s=1.5,
    warmup_s=0.5,
    seed=11,
    cdf_sites=("CA",),
)


class TestSimBackend:
    def test_runs_and_reports_per_site_latency(self):
        result = Deployment(SMALL).run()
        assert result.backend == "sim"
        assert set(result.sites) == {"CA", "VA", "IR"}
        assert result.total_committed > 0
        for site_result in result.sites.values():
            assert site_result.committed > 0
            assert site_result.summary is not None
            assert site_result.summary.mean_ms > 0
        assert result.sites["CA"].cdf_ms, "requested CDF missing"
        assert result.throughput_kops == pytest.approx(
            result.total_committed / SMALL.duration_s / 1000.0
        )

    def test_same_seed_is_deterministic(self):
        first = Deployment(SMALL).run()
        second = Deployment(SMALL).run()
        assert first.total_committed == second.total_committed
        assert first.sites["CA"].summary == second.sites["CA"].summary

    def test_fault_schedule_is_installed(self):
        spec = ExperimentSpec(
            name="crash",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            workload=WorkloadSpec(clients_per_site=2),
            faults=(
                FaultSpec(kind="crash", at_s=0.4, site="IR"),
                FaultSpec(kind="recover", at_s=0.9, site="IR", rejoin=True),
            ),
            duration_s=1.6,
            warmup_s=0.0,
            seed=5,
        )
        result = Deployment(spec).run()
        # The cluster survives the crash/recover cycle and keeps committing.
        assert result.total_committed > 0
        assert result.replica_metrics[2]["executed"] > 0

    def test_cpu_model_reports_utilization(self):
        spec = ExperimentSpec(
            name="cpu",
            protocol="paxos",
            sites=("dc0", "dc1", "dc2"),
            latency="uniform",
            one_way_ms=0.05,
            jitter_fraction=0.0,
            workload=WorkloadSpec(
                scenario="saturating", outstanding_per_site=8, payload_size=100, app="null"
            ),
            cpu=CpuSpec(recv_fixed=10.0, recv_per_byte=0.01, send_fixed=10.0,
                        send_per_byte=0.01, client_fixed=2.0),
            duration_s=0.1,
            warmup_s=0.03,
            seed=7,
        )
        result = Deployment(spec).run()
        assert result.total_committed > 0
        for metrics in result.replica_metrics.values():
            assert 0.0 <= metrics["utilization"] <= 1.0

    def test_saturating_workload_on_the_kv_app(self):
        # Regression: saturating clients must feed the kv state machine
        # decodable update commands, not opaque zero blobs.
        spec = ExperimentSpec(
            name="sat-kv",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            workload=WorkloadSpec(scenario="saturating", outstanding_per_site=4),
            duration_s=0.4,
            warmup_s=0.1,
        )
        result = Deployment(spec).run()
        assert result.total_committed > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            Deployment(SMALL, backend="kubernetes")
        assert set(BACKENDS) == {"sim", "async", "proc"}

    def test_comparison_covers_all_protocols(self):
        quick = ExperimentSpec(
            name="cmp",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            workload=WorkloadSpec(clients_per_site=2),
            duration_s=0.8,
            warmup_s=0.2,
        )
        results = run_comparison(quick, ("clock-rsm", "paxos-bcast"))
        assert set(results) == {"clock-rsm", "paxos-bcast"}
        assert all(r.total_committed > 0 for r in results.values())


class TestAsyncBackend:
    def test_rejects_cpu_models_and_unknown_fault_kinds(self):
        # Fault schedules are supported on the async backend, but a fault
        # kind it has no implementation for must be rejected at validation
        # time, never silently dropped (see test_async_faults.py for the
        # injection tests themselves).
        from repro.experiment.async_backend import AsyncBackend
        from repro.experiment import spec as spec_module

        with_faults = ExperimentSpec(
            name="f",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            faults=(FaultSpec(kind="crash", at_s=0.1, site="CA"),),
        )
        AsyncBackend()._check_supported(with_faults)  # crash is supported

        original_kinds = spec_module.FAULT_KINDS
        spec_module.FAULT_KINDS = original_kinds + ("teleport",)
        try:
            futuristic = ExperimentSpec(
                name="t",
                protocol="clock-rsm",
                sites=("CA", "VA", "IR"),
                faults=(FaultSpec(kind="teleport", at_s=0.1, site="CA"),),
            )
        finally:
            spec_module.FAULT_KINDS = original_kinds
        with pytest.raises(ConfigurationError, match="teleport"):
            Deployment(futuristic, backend="async").run()

        with_cpu = ExperimentSpec(
            name="c",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            cpu=CpuSpec(),
        )
        with pytest.raises(ConfigurationError, match="CPU"):
            Deployment(with_cpu, backend="async").run()

    def test_invalid_backend_options_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid options"):
            Deployment(SMALL, backend="async", warp_factor=9)

    def test_back_to_back_runs_each_get_a_fresh_loop(self):
        from repro.experiment.async_backend import AsyncBackend

        backend = AsyncBackend(time_scale=20)
        first, second = backend.run(SMALL), backend.run(SMALL)
        assert first.total_committed > 0 and second.total_committed > 0


class TestSimAsyncParity:
    """The same spec commits the same kind of work through both backends."""

    def test_both_backends_run_the_same_spec(self):
        sim = Deployment(SMALL, backend="sim").run()
        live = Deployment(SMALL, backend="async", time_scale=10).run()
        assert {sim.backend, live.backend} == {"sim", "async"}
        for result in (sim, live):
            assert result.name == SMALL.name
            assert result.protocol == SMALL.protocol
            assert set(result.sites) == set(SMALL.sites)
            assert result.total_committed > 0
            for site_result in result.sites.values():
                assert site_result.committed > 0, (result.backend, site_result.site)
                assert site_result.summary is not None
        # Replicas converge: every server executed every committed command
        # (modulo commands still in flight when the run stopped).
        executed = [m["executed"] for m in live.replica_metrics.values()]
        assert max(executed) >= live.total_committed


class TestRunCli:
    """The shipped sample specs execute through ``repro run``."""

    def test_fig1_spec_on_the_sim_backend(self, capsys, tmp_path, monkeypatch):
        spec = ExperimentSpec.from_file(SPECS_DIR / "fig1_balanced_5.toml")
        # Shrink the run so the CLI test stays fast, then execute the derived
        # file exactly as a user would.
        from dataclasses import replace

        quick = replace(
            spec,
            duration_s=0.8,
            warmup_s=0.2,
            workload=replace(spec.workload, clients_per_site=3),
        )
        path = tmp_path / "fig1_quick.json"
        path.write_text(json.dumps(quick.to_dict()))
        assert main(["run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "clock-rsm on the sim backend" in output
        assert "total committed" in output
        for site in quick.sites:
            assert site in output

    def test_fig1_spec_on_the_async_backend(self, capsys, tmp_path):
        spec = ExperimentSpec.from_file(SPECS_DIR / "fig1_balanced_5.toml")
        from dataclasses import replace

        quick = replace(
            spec,
            duration_s=1.0,
            warmup_s=0.2,
            workload=replace(spec.workload, clients_per_site=2),
        )
        path = tmp_path / "fig1_async.json"
        path.write_text(json.dumps(quick.to_dict()))
        assert main(["run", str(path), "--backend", "async", "--time-scale", "10"]) == 0
        output = capsys.readouterr().out
        assert "clock-rsm on the async backend" in output

    def test_skewed_clocks_spec_parses_and_runs_briefly(self, capsys, tmp_path):
        spec = ExperimentSpec.from_file(SPECS_DIR / "skewed_clocks.toml")
        assert dict(spec.clocks)["VA"].offset_ms == 40.0
        from dataclasses import replace

        quick = replace(
            spec,
            duration_s=0.6,
            warmup_s=0.1,
            workload=replace(spec.workload, clients_per_site=2),
        )
        path = tmp_path / "skew_quick.json"
        path.write_text(json.dumps(quick.to_dict()))
        assert main(["run", str(path)]) == 0
        assert "skewed-clocks" in capsys.readouterr().out

    def test_json_output_mode(self, capsys, tmp_path):
        from dataclasses import replace

        quick = replace(
            SMALL, duration_s=0.5, warmup_s=0.1,
            workload=replace(SMALL.workload, clients_per_site=2),
            cdf_sites=(),
        )
        path = tmp_path / "small.json"
        path.write_text(json.dumps(quick.to_dict()))
        assert main(["run", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["protocol"] == "clock-rsm"
        assert data["total_committed"] > 0

    def test_bad_spec_file_exits_with_an_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('name = "x"\nprotocol = "raft"\nsites = ["CA"]\n')
        with pytest.raises(SystemExit, match="unknown protocol"):
            main(["run", str(path)])
