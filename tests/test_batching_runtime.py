"""Batching and pipelining on the live runtime and through both backends."""

from __future__ import annotations

import asyncio

import pytest

from repro.config import BatchingOptions, ClusterSpec
from repro.core.messages import PrepareRecord
from repro.experiment import (
    BatchingSpec,
    Deployment,
    ExperimentSpec,
    WorkloadSpec,
    check_spec,
)
from repro.kvstore.commands import encode_put
from repro.protocols.records import CommandBatch
from repro.runtime.client import ReplicatedKVClient
from repro.runtime.local import LocalAsyncCluster
from repro.sim.scheduler import LoopTimer
from repro.types import Command, CommandId

from tests.helpers import start_on_bound_ports, tcp_servers


def run(coro):
    return asyncio.run(coro)


def _spec(sites=("CA", "VA", "IR")) -> ClusterSpec:
    return ClusterSpec.from_sites(list(sites))


class TestBatchAccumulator:
    def test_size_flush_cancels_window_timer(self):
        from repro.net.batching import BatchAccumulator

        async def scenario():
            flushed: list[list[int]] = []
            acc = BatchAccumulator(
                BatchingOptions(max_batch=2, window_us=20_000), flushed.append, LoopTimer()
            )
            acc.add(1)
            acc.add(2)  # size flush; must disarm the 20 ms timer
            assert flushed == [[1, 2]]
            acc.add(3)
            await asyncio.sleep(0.005)
            # The stale timer (armed at t=0) would have fired by now and
            # flushed [3] early; the fresh timer (armed with item 3) has not.
            assert flushed == [[1, 2]]
            await asyncio.sleep(0.025)
            assert flushed == [[1, 2], [3]]
            return True

        assert run(scenario())

    def test_window_zero_flushes_next_tick(self):
        from repro.net.batching import BatchAccumulator

        async def scenario():
            flushed: list[list[int]] = []
            acc = BatchAccumulator(BatchingOptions(max_batch=64), flushed.append, LoopTimer())
            acc.add(1)
            acc.add(2)
            assert flushed == []  # still the same tick
            await asyncio.sleep(0)
            assert flushed == [[1, 2]]
            acc.add(3)
            acc.clear()
            await asyncio.sleep(0)
            assert flushed == [[1, 2]]  # cleared items never flush
            return True

        assert run(scenario())


class TestDriverAccumulation:
    def test_same_tick_submissions_propose_one_batch(self):
        async def scenario():
            cluster = LocalAsyncCluster(
                "clock-rsm", _spec(), batching=BatchingOptions(max_batch=8, window_us=0)
            )
            async with cluster:
                outputs = await asyncio.gather(
                    *(
                        cluster.submit(0, encode_put(f"k{i}", b"v"))
                        for i in range(8)
                    )
                )
                assert len(outputs) == 8
                units = [
                    record.command
                    for record in cluster.servers[0].replica.log.records()
                    if isinstance(record, PrepareRecord)
                ]
                batch_sizes = [len(u) for u in units if isinstance(u, CommandBatch)]
                assert batch_sizes and max(batch_sizes) <= 8
                assert sum(batch_sizes) + sum(
                    1 for u in units if not isinstance(u, CommandBatch)
                ) == 8
            return True

        assert run(scenario())

    def test_positive_window_flushes_after_timeout(self):
        async def scenario():
            cluster = LocalAsyncCluster(
                "paxos",
                _spec(),
                batching=BatchingOptions(max_batch=64, window_us=2_000),
            )
            async with cluster:
                # A single command never fills max_batch; only the window
                # timer can flush it.
                output = await asyncio.wait_for(
                    cluster.submit(0, encode_put("k", b"v")), timeout=5
                )
                assert output is None
            return True

        assert run(scenario())

    def test_stopped_driver_drops_accumulated_commands(self):
        async def scenario():
            cluster = LocalAsyncCluster(
                "mencius",
                _spec(),
                batching=BatchingOptions(max_batch=64, window_us=50_000),
            )
            async with cluster:
                server = cluster.servers[0]
                server.driver.submit(Command(CommandId("c", 1), encode_put("k", b"v")))
                assert len(server.driver._accumulator) == 1
                server.driver.stop()
                assert len(server.driver._accumulator) == 0
            return True

        assert run(scenario())


class TestPipelinedTcpClient:
    def test_pipelined_batched_client_over_real_sockets(self):
        async def scenario():
            batching = BatchingOptions(max_batch=8, window_us=0, pipeline_depth=4)
            servers = tcp_servers("clock-rsm", _spec(("CA", "VA", "IR")), batching)
            await start_on_bound_ports(servers)
            try:
                client = ReplicatedKVClient(servers[0])
                # Twelve puts in flight at once: none awaits an earlier commit.
                results = await asyncio.gather(
                    *(client.put(f"pipe{i}", b"v%d" % i) for i in range(12))
                )
                assert results == [None] * 12
                # Submitted in one tick, they were agreed on in batches.
                batches = [
                    record.command
                    for record in servers[0].replica.log.records()
                    if isinstance(record, PrepareRecord)
                    and isinstance(record.command, CommandBatch)
                ]
                assert batches and max(len(batch) for batch in batches) > 1
                reader = ReplicatedKVClient(servers[1])
                for i in range(12):
                    assert await reader.get(f"pipe{i}") == b"v%d" % i
            finally:
                for server in servers:
                    await server.stop()
            return True

        assert run(scenario())


class TestBackends:
    def _experiment(self, protocol: str, batching: BatchingSpec | None) -> ExperimentSpec:
        return ExperimentSpec(
            name=f"batch-rt-{protocol}",
            protocol=protocol,
            sites=("S0", "S1", "S2"),
            latency="uniform",
            one_way_ms=0.1,
            workload=WorkloadSpec(
                scenario="saturating", outstanding_per_site=16, app="kv"
            ),
            duration_s=0.3,
            warmup_s=0.05,
            seed=9,
            batching=batching,
        )

    @pytest.mark.parametrize("protocol", ["clock-rsm", "mencius"])
    def test_batched_spec_checks_clean_on_both_backends(self, protocol):
        spec = self._experiment(
            protocol, BatchingSpec(max_batch=8, window_us=0, pipeline_depth=2)
        )
        sim = check_spec(spec, backend="sim")
        assert sim.linearizable, sim.report.describe()
        live = check_spec(spec, backend="async", time_scale=20, submit_timeout=5.0)
        assert live.linearizable, live.report.describe()

    def test_async_backend_scales_the_window_like_every_other_delay(self):
        from repro.experiment.walltime import scaled_batching

        spec = self._experiment(
            "mencius", BatchingSpec(max_batch=8, window_us=500, pipeline_depth=2)
        )
        scaled = scaled_batching(spec, 10)
        assert scaled.window_us == 50  # spec-time 500 us -> wall-clock 50 us
        assert (scaled.max_batch, scaled.pipeline_depth) == (8, 2)
        unscaled = scaled_batching(spec, 1)
        assert unscaled.window_us == 500
        zero = self._experiment("mencius", BatchingSpec(max_batch=8, window_us=0))
        assert scaled_batching(zero, 10).window_us == 0

    def test_pipeline_depth_applies_to_async_clients(self):
        spec = self._experiment(
            "clock-rsm", BatchingSpec(max_batch=8, window_us=0, pipeline_depth=4)
        )
        # 10 s at time_scale=10 is a 1 s wall window: a loaded host can stall a
        # loop for 0.1 s, and then nothing commits inside a window that short.
        spec = ExperimentSpec.from_dict({**spec.to_dict(), "duration_s": 10.0})
        result = Deployment(spec, backend="async", time_scale=10).run()
        assert result.total_committed > 0
