"""Fault injection on the asyncio backend (crash/recover/partition/clock-jump).

The same ``FaultSpec`` schedules the simulator runs now drive the live
asyncio runtime; these tests cover the async-specific machinery: the
``LocalAsyncCluster`` fault surface, recovery-with-replay through
``ReplicaServer.restart``, partition buffering (quasi-reliable channels),
and validation of unsupported fault kinds.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import ClusterSpec
from repro.errors import ConfigurationError
from repro.experiment import ExperimentSpec, FaultSpec, WorkloadSpec, check_spec
from repro.experiment.async_backend import ASYNC_FAULT_KINDS, AsyncBackend
from repro.experiment.spec import FAULT_KINDS
from repro.experiment.walltime import clock_factory
from repro.kvstore.commands import encode_get, encode_put
from repro.runtime.local import LocalAsyncCluster


def small_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="async-faults",
        protocol="clock-rsm",
        sites=("CA", "VA", "IR"),
        workload=WorkloadSpec(clients_per_site=2, think_time_max_ms=30.0),
        duration_s=1.0,
        warmup_s=0.0,
        seed=23,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestAsyncFaultInjection:
    def test_every_spec_fault_kind_is_injectable(self):
        # The guard that stops new FAULT_KINDS entries from being silently
        # dropped: anything a spec can express, this backend must implement.
        assert set(FAULT_KINDS) == set(ASYNC_FAULT_KINDS)

    def test_crash_then_recover_with_rejoin(self):
        spec = small_spec(
            faults=(
                FaultSpec(kind="crash", at_s=0.25, site="IR"),
                FaultSpec(kind="recover", at_s=0.6, site="IR", rejoin=True),
            ),
            duration_s=1.2,
        )
        run = check_spec(spec, backend="async", time_scale=25, submit_timeout=0.8)
        assert run.linearizable, run.report.violation
        assert run.result.total_committed > 0
        # The recovered replica replayed its log: its apply order is again a
        # prefix of the longest one (checker verified), and it executed work.
        recovered = spec.cluster_spec().by_site("IR").replica_id
        assert run.result.replica_metrics[recovered]["executed"] > 0

    def test_isolate_and_heal(self):
        spec = small_spec(
            faults=(
                FaultSpec(kind="isolate", at_s=0.3, site="VA", heal_at_s=0.6),
            ),
        )
        run = check_spec(spec, backend="async", time_scale=25, submit_timeout=0.8)
        assert run.linearizable, run.report.violation
        assert run.result.total_committed > 0

    def test_clock_jump_keeps_history_linearizable(self):
        spec = small_spec(
            faults=(
                FaultSpec(kind="clock-jump", at_s=0.3, site="VA", offset_ms=60.0),
                FaultSpec(kind="clock-jump", at_s=0.6, site="IR", offset_ms=-20.0),
            ),
        )
        run = check_spec(spec, backend="async", time_scale=25, submit_timeout=0.8)
        assert run.linearizable, run.report.violation
        assert run.result.total_committed > 0

    def test_clock_jump_requires_adjustable_clocks(self):
        # The backend provisions adjustable clocks whenever the schedule
        # contains a clock-jump, even with no static skew configured.
        backend = AsyncBackend(time_scale=25)
        spec = small_spec(
            faults=(FaultSpec(kind="clock-jump", at_s=0.1, site="CA", offset_ms=5.0),),
        )
        factory = clock_factory(spec, backend.time_scale)
        assert factory is not None
        for replica_id in (0, 1, 2):
            clock = factory(replica_id)
            assert clock is not None and hasattr(clock, "adjust")


class TestLocalClusterFaultSurface:
    def run_async(self, coro):
        return asyncio.run(coro)

    def test_partition_buffers_and_redelivers(self):
        async def scenario():
            spec = ClusterSpec.from_sites(["a", "b", "c"])
            cluster = LocalAsyncCluster("clock-rsm", spec)
            async with cluster:
                await cluster.submit(0, encode_put("k", b"1"))
                cluster.partition(0, 1)
                cluster.partition(0, 2)
                # The isolated replica 0 cannot commit: its PREPAREs are
                # parked, not lost.
                submit = asyncio.create_task(cluster.submit(0, encode_put("k", b"2")))
                await asyncio.sleep(0.1)
                assert not submit.done()
                cluster.heal(0, 1)
                cluster.heal(0, 2)
                # After healing, the parked traffic drains and the write
                # commits with the correct previous value.
                assert await asyncio.wait_for(submit, timeout=5.0) == b"1"
                assert await cluster.submit(1, encode_get("k")) == b"2"

        self.run_async(scenario())

    def test_in_flight_messages_are_parked_when_partition_starts(self):
        async def scenario():
            spec = ClusterSpec.from_sites(["CA", "VA", "IR"])
            from repro.analysis.ec2 import ec2_latency_matrix

            cluster = LocalAsyncCluster(
                "clock-rsm", spec, latency=ec2_latency_matrix(spec.sites)
            )
            async with cluster:
                # Commands from replica 0 put ~80ms PREPAREs in flight; cut
                # the links before they land.  Delivery-time re-checks must
                # park them (quasi-reliable channels), exactly like the sim.
                submit = asyncio.create_task(cluster.submit(0, encode_put("k", b"1")))
                await asyncio.sleep(0.01)
                cluster.partition(0, 1)
                cluster.partition(0, 2)
                await asyncio.sleep(0.3)
                assert not submit.done()  # in-flight traffic was withheld
                cluster.heal(0, 1)
                cluster.heal(0, 2)
                assert await asyncio.wait_for(submit, timeout=5.0) is None
                assert await cluster.submit(1, encode_get("k")) == b"1"

        self.run_async(scenario())

    def test_crash_stalls_commits_until_rejoin_recovery(self):
        async def scenario():
            spec = ClusterSpec.from_sites(["a", "b", "c"])
            cluster = LocalAsyncCluster("clock-rsm", spec)
            async with cluster:
                assert await cluster.submit(0, encode_put("k", b"1")) is None
                executed_before = cluster.servers[2].replica.executed_count
                cluster.crash(2)
                # With a replica crashed, Clock-RSM's stable-order condition
                # can no longer advance (the paper removes the replica via
                # reconfiguration); new commands must stall, not commit with
                # a weaker guarantee.
                stalled = asyncio.create_task(
                    cluster.submit(0, encode_put("j", b"x"))
                )
                await asyncio.sleep(0.15)
                assert not stalled.done()
                # Rejoin recovery: replay the log, then run the paper's
                # reconfiguration (Algorithm 3) so the deployment resumes.
                cluster.recover(2, rejoin=True)
                # Recovery replayed the stable log into a fresh replica.
                assert cluster.servers[2].replica.executed_count >= executed_before
                # New commands commit again at every replica — including the
                # recovered one, whose state reflects the replayed history.
                assert await asyncio.wait_for(
                    cluster.submit(1, encode_get("k")), timeout=5.0
                ) == b"1"
                assert await asyncio.wait_for(
                    cluster.submit(2, encode_get("k")), timeout=5.0
                ) == b"1"
                # The command caught mid-reconfiguration is dropped with the
                # old epoch (clients retry, as after a Paxos view change).
                stalled.cancel()

        self.run_async(scenario())

    def test_clock_jump_without_adjustable_clock_rejected(self):
        async def scenario():
            spec = ClusterSpec.from_sites(["a", "b", "c"])
            cluster = LocalAsyncCluster("clock-rsm", spec)  # SystemClock: fixed
            async with cluster:
                with pytest.raises(ConfigurationError, match="cannot be stepped"):
                    cluster.clock_jump(0, 1000)

        self.run_async(scenario())


class TestValidation:
    def test_unsupported_fault_kind_rejected_at_validation(self, monkeypatch):
        from repro.experiment import spec as spec_module

        monkeypatch.setattr(
            spec_module, "FAULT_KINDS", spec_module.FAULT_KINDS + ("teleport",)
        )
        futuristic = small_spec(
            faults=(FaultSpec(kind="teleport", at_s=0.1, site="CA"),),
        )
        with pytest.raises(ConfigurationError, match="teleport"):
            AsyncBackend()._check_supported(futuristic)

    def test_clock_jump_spec_validation(self):
        with pytest.raises(ConfigurationError, match="offset_ms"):
            FaultSpec(kind="clock-jump", at_s=0.1, site="CA")
        with pytest.raises(ConfigurationError, match="offset_ms"):
            FaultSpec(kind="crash", at_s=0.1, site="CA", offset_ms=3.0)
        fault = FaultSpec(kind="clock-jump", at_s=0.1, site="CA", offset_ms=-3.0)
        assert fault.offset_ms == -3.0
