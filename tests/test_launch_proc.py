"""The proc backend end to end: real processes, real TCP, real teardown.

These tests spawn actual worker processes (``python -m repro.launch.worker``)
per replica, so they are the slowest in the suite — each run costs about a
second of wall clock.  They deliberately keep specs tiny; throughput is
measured by ``perf/``, not here.
"""

from __future__ import annotations

import asyncio
import os
import signal
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.checker.history import OpHistory
from repro.errors import ConfigurationError, LaunchError
from repro.experiment import (
    CpuSpec,
    ExperimentSpec,
    FaultSpec,
    ProcessesSpec,
    WorkloadSpec,
    check_spec,
    run_spec,
)
from repro.launch import ProcessBackend, Supervisor
from repro.types import CommandId


def tiny(**kwargs) -> ExperimentSpec:
    defaults = dict(
        name="proc-test",
        protocol="clock-rsm",
        sites=("CA", "VA", "IR"),
        workload=WorkloadSpec(
            clients_per_site=2, think_time_min_ms=1.0, think_time_max_ms=3.0
        ),
        duration_s=0.4,
        warmup_s=0.1,
        seed=7,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestProcessBackendRuns:
    def test_end_to_end_run(self):
        result = run_spec(tiny(), backend="proc", time_scale=1.0)
        assert result.backend == "proc"
        assert result.total_committed > 0
        assert set(result.sites) == {"CA", "VA", "IR"}
        for site_result in result.sites.values():
            assert site_result.committed > 0
            assert site_result.summary is not None
            # Real loopback round-trips: latencies are positive wall time.
            assert site_result.summary.mean_ms > 0
        # Replicas stayed in agreement on how much was executed.
        executed = {m["executed"] for m in result.replica_metrics.values()}
        assert all(v > 0 for v in executed)

    def test_metadata_reports_real_network_and_clean_exits(self):
        result = run_spec(tiny(), backend="proc", time_scale=1.0)
        assert result.metadata["latency_applied"] is False
        assert result.metadata["jitter_applied"] is False
        workers = result.metadata["workers"]
        assert set(workers) == {"0", "1", "2"}
        # Graceful teardown: every process acknowledged the exit message and
        # left on its own — no signal escalation, no orphans.
        assert all(w["exit"] == "clean" for w in workers.values())
        assert all(w["returncode"] == 0 for w in workers.values())

    def test_latency_split_is_recorded(self):
        result = run_spec(tiny(), backend="proc", time_scale=1.0)
        split = result.latency_split()
        assert split is not None
        assert split["samples"] > 0
        assert split["protocol_mean_us"] > 0

    def test_checked_run_is_linearizable(self):
        spec = tiny(name="proc-check", workload=WorkloadSpec(
            app="kv", clients_per_site=2, think_time_min_ms=1.0,
            think_time_max_ms=3.0,
        ))
        run = check_spec(spec, backend="proc", time_scale=1.0, submit_timeout=10.0)
        assert run.linearizable
        assert run.result.backend == "proc"


class TestHistoryTimeline:
    def test_worker_histories_are_put_on_the_earliest_start(self):
        # Regression: each worker timed its history from its own start, a few
        # ms apart, and the checker compared those instants directly, so two
        # overlapping operations at different sites could look ordered (a
        # spurious real-time violation).  No process is spawned here.
        spec = replace(tiny(), record_history=True)
        payloads = {}
        for rid, started_at in zip(spec.cluster_spec().replica_ids, (10.004, 10.0, 10.0015)):
            history = OpHistory()
            history.invoke(CommandId(f"c{rid}", 1), rid, b"", 100)
            history.complete(CommandId(f"c{rid}", 1), None, 900)
            payloads[rid] = {"history": history.to_dict(), "history_started_at": started_at}
        supervisor = SimpleNamespace(processes=ProcessesSpec(), worker_exits={})
        result = ProcessBackend(time_scale=2.0)._assemble(spec, payloads, supervisor, 1.0)
        times = {op.client: (op.invoked_at, op.returned_at) for op in result.history}
        # Offsets of 4 ms and 1.5 ms at time_scale 2 are 8000 and 3000 spec-us.
        assert times == {"c0": (8_100, 8_900), "c1": (100, 900), "c2": (3_100, 3_900)}


class TestValidation:
    def test_fault_schedules_rejected(self):
        spec = tiny(faults=(FaultSpec(kind="crash", site="CA", at_s=0.1),))
        with pytest.raises(ConfigurationError, match="fault"):
            run_spec(spec, backend="proc")

    def test_cpu_model_rejected(self):
        spec = tiny(cpu=CpuSpec(recv_fixed=10.0))
        with pytest.raises(ConfigurationError, match="CPU cost model"):
            run_spec(spec, backend="proc")

    def test_time_scale_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="time_scale"):
            ProcessBackend(time_scale=0)


class TestCrashHandling:
    def test_killed_worker_is_an_error_not_a_hang(self):
        """SIGKILL one worker mid-deployment: LaunchError, everyone reaped."""
        spec = tiny(name="proc-crash", duration_s=5.0, warmup_s=0.5)
        supervisor = Supervisor(spec, time_scale=1.0, submit_timeout=5.0)

        async def scenario():
            deploy = asyncio.create_task(supervisor.run())

            async def kill_one():
                # Wait for the first worker process to exist, then kill it
                # whatever phase the deployment is in.
                while not supervisor._handles:
                    await asyncio.sleep(0.02)
                handle = next(iter(supervisor._handles.values()))
                await asyncio.sleep(0.3)
                os.kill(handle.process.pid, signal.SIGKILL)

            killer = asyncio.create_task(kill_one())
            with pytest.raises(LaunchError):
                # The full run would take > 5 s; the crash must surface much
                # sooner, and never hang.
                await asyncio.wait_for(deploy, timeout=30.0)
            await killer

        asyncio.run(scenario())
        # Teardown accounting: every spawned process has been reaped.
        assert len(supervisor.worker_exits) == 3
        for handle in supervisor._handles.values():
            assert handle.process.returncode is not None

    def test_supervisor_teardown_leaves_no_orphans_on_success(self):
        spec = tiny(name="proc-orphans")
        supervisor = Supervisor(spec, time_scale=1.0, submit_timeout=10.0)

        async def scenario():
            payloads = await supervisor.run()
            assert set(payloads) == {0, 1, 2}

        asyncio.run(scenario())
        assert set(supervisor.worker_exits) == {0, 1, 2}
        for rid, handle in supervisor._handles.items():
            assert handle.process.returncode is not None, f"worker {rid} not reaped"
            # Process is really gone from the OS (kill 0 probes existence).
            with pytest.raises(ProcessLookupError):
                os.kill(handle.process.pid, 0)
