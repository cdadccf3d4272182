"""The queue-wait vs protocol-time latency split recorded at the driver.

PR 4 tuned batching windows and pipeline depths by total commit latency
alone; the split separates time a command spends waiting in the batching
accumulator (queue wait) from time inside consensus and execution (protocol
time), so window/depth tuning becomes quantitative.
"""

from __future__ import annotations

import asyncio

from repro.config import BatchingOptions, ClusterSpec
from repro.experiment import BatchingSpec, Deployment, ExperimentSpec, WorkloadSpec
from repro.kvstore.commands import encode_put
from repro.runtime.local import LocalAsyncCluster


def run(coro):
    return asyncio.run(coro)


def _spec(sites=("CA", "VA", "IR")) -> ClusterSpec:
    return ClusterSpec.from_sites(list(sites))


class TestDriverSplit:
    def test_no_samples_before_any_reply(self):
        async def scenario():
            cluster = LocalAsyncCluster("clock-rsm", _spec())
            async with cluster:
                assert cluster.servers[0].driver.latency_split() is None
            return True

        assert run(scenario())

    def test_unbatched_submissions_have_zero_queue_wait(self):
        async def scenario():
            cluster = LocalAsyncCluster("clock-rsm", _spec())
            async with cluster:
                for i in range(4):
                    await cluster.submit(0, encode_put(f"k{i}", b"v"))
                split = cluster.servers[0].driver.latency_split()
                assert split is not None
                assert split["samples"] == 4
                assert split["queue_wait_s"] == 0.0
                assert split["protocol_s"] > 0.0
            return True

        assert run(scenario())

    def test_window_wait_shows_up_as_queue_time(self):
        async def scenario():
            # A 20 ms window with one lone command: the command sits in the
            # accumulator until the window timer fires, so its queue wait must
            # be on the order of the window.
            cluster = LocalAsyncCluster(
                "paxos",
                _spec(),
                batching=BatchingOptions(max_batch=64, window_us=20_000),
            )
            async with cluster:
                await asyncio.wait_for(
                    cluster.submit(0, encode_put("k", b"v")), timeout=5
                )
                split = cluster.servers[0].driver.latency_split()
                assert split is not None and split["samples"] == 1
                assert split["queue_wait_s"] >= 0.010
            return True

        assert run(scenario())

    def test_every_command_of_a_batch_is_settled(self):
        async def scenario():
            cluster = LocalAsyncCluster(
                "clock-rsm",
                _spec(),
                batching=BatchingOptions(max_batch=8, window_us=0),
            )
            async with cluster:
                await asyncio.gather(
                    *(
                        cluster.submit(0, encode_put(f"k{i}", b"v"))
                        for i in range(8)
                    )
                )
                split = cluster.servers[0].driver.latency_split()
                assert split is not None and split["samples"] == 8
                assert split["queue_wait_s"] >= 0.0
                assert split["protocol_s"] > 0.0
                # Settled commands release their in-flight records.
                driver = cluster.servers[0].driver
                assert not driver._in_flight
            return True

        assert run(scenario())


class TestBackendWiring:
    def _experiment(self, batching) -> ExperimentSpec:
        return ExperimentSpec(
            name="split-rt",
            protocol="clock-rsm",
            sites=("S0", "S1", "S2"),
            latency="uniform",
            one_way_ms=0.1,
            workload=WorkloadSpec(
                scenario="saturating", outstanding_per_site=8, app="kv"
            ),
            duration_s=0.3,
            warmup_s=0.05,
            seed=11,
            batching=batching,
        )

    def test_async_result_reports_the_split(self):
        spec = self._experiment(BatchingSpec(max_batch=8, window_us=0))
        result = Deployment(spec, backend="async", time_scale=10).run()
        split = result.latency_split()
        assert split is not None
        assert split["samples"] > 0
        assert split["protocol_mean_us"] > 0
        assert split["queue_wait_mean_us"] >= 0
        for metrics in result.replica_metrics.values():
            assert "split_samples" in metrics

    def test_sim_result_has_no_split(self):
        spec = self._experiment(None)
        result = Deployment(spec, backend="sim").run()
        assert result.latency_split() is None
