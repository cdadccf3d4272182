"""Command batching at the protocol layer: every replica orders batches.

A :class:`~repro.protocols.records.CommandBatch` occupies one slot (or one
Clock-RSM timestamp): the protocols replicate it with a single round, execute
the constituents in batch order, and reply to every constituent's client.
Execution orders stay per-command, so the total-order assertions and the
consistency checker are oblivious to batching.
"""

from __future__ import annotations

import pytest

from repro.config import BatchingOptions, ClusterSpec
from repro.core.messages import PrepareRecord
from repro.errors import ProtocolError
from repro.net.latency import LatencyMatrix
from repro.protocols.records import AcceptRecord, CommandBatch, make_unit, unit_commands
from repro.sim.cluster import SimulatedCluster
from repro.types import Command, CommandId, ms_to_micros

from tests.helpers import ALL_PROTOCOLS, submit_payload

SITES = ["CA", "VA", "IR"]


def _cluster(protocol: str, batching: BatchingOptions | None = None) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterSpec.from_sites(SITES),
        LatencyMatrix.uniform(SITES, one_way=ms_to_micros(1.0)),
        protocol,
        batching=batching,
    )


def _logged_units(cluster: SimulatedCluster) -> list:
    """The units replica 0 accepted into slots, from its stable log (the
    ledger forgets a slot once it executed)."""
    return [r.command for r in cluster.logs[0].records() if isinstance(r, AcceptRecord)]


def _batch(client: str, count: int, start: int = 0) -> CommandBatch:
    return CommandBatch(
        tuple(Command(CommandId(client, start + i), b"p%d" % i) for i in range(count))
    )


class TestCommandBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError):
            CommandBatch(())

    def test_make_unit_singleton_is_bare_command(self):
        command = Command(CommandId("c", 1), b"x")
        assert make_unit([command]) is command
        batch = make_unit([command, Command(CommandId("c", 2), b"y")])
        assert isinstance(batch, CommandBatch)
        assert unit_commands(batch)[0] is command

    def test_size_sums_constituents(self):
        batch = _batch("c", 3)
        assert batch.size == sum(c.size for c in batch)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestBatchesCommitOnEveryProtocol:
    def test_batch_executes_in_order_with_per_command_replies(self, protocol):
        cluster = _cluster(protocol)
        cluster.start()
        cluster.submit(0, _batch("cl", 4))
        cluster.submit(1, Command(CommandId("cl", 99), b"solo"))
        cluster.run_for(ms_to_micros(100))
        cluster.assert_consistent_order()

        replied = {event.command_id.seqno for event in cluster.replies}
        assert replied == {0, 1, 2, 3, 99}
        order = [cid.seqno for cid in cluster.execution_orders()[0] if cid.client == "cl"]
        assert [s for s in order if s < 10] == [0, 1, 2, 3]

    def test_interleaved_batches_from_all_sites_stay_totally_ordered(self, protocol):
        cluster = _cluster(protocol)
        cluster.start()
        for rid in range(3):
            cluster.submit(rid, _batch(f"site{rid}", 3, start=rid * 10))
        cluster.run_for(ms_to_micros(200))
        cluster.assert_consistent_order()
        assert len(cluster.replies) == 9
        # Within one batch, constituents are adjacent in the execution order.
        order = cluster.execution_orders()[0]
        for rid in range(3):
            positions = [
                index for index, cid in enumerate(order) if cid.client == f"site{rid}"
            ]
            assert positions == list(range(positions[0], positions[0] + 3))


class TestClockRsmBatchRecovery:
    def test_recovered_replica_replays_batches_per_command(self):
        cluster = _cluster("clock-rsm")
        cluster.start()
        cluster.submit(0, _batch("cl", 3))
        cluster.run_for(ms_to_micros(50))
        committed = list(cluster.execution_orders()[1])
        assert len(committed) == 3

        cluster.crash(1)
        cluster.run_for(ms_to_micros(10))
        replica = cluster.recover(1)
        assert replica.execution_order == committed
        # The stable log still stores the batch as one PREPARE entry.
        prepares = [
            r for r in cluster.logs[1].records() if isinstance(r, PrepareRecord)
        ]
        assert any(isinstance(r.command, CommandBatch) for r in prepares)


class TestSimAccumulation:
    def test_same_instant_submissions_form_one_batch(self):
        cluster = _cluster("mencius", BatchingOptions(max_batch=16, window_us=0))
        cluster.start()
        for i in range(5):
            submit_payload(cluster, 0, b"x", client="c")
        # Proposed, not yet acknowledged: one slot holds all five commands.
        cluster.run_for(ms_to_micros(0.5))
        slots = cluster.replica(0).ledger._slots
        assert [len(state.command) for state in slots.values()] == [5]
        cluster.run_for(ms_to_micros(50))
        batches = [u for u in _logged_units(cluster) if isinstance(u, CommandBatch)]
        assert [len(b) for b in batches] == [5]
        assert len(cluster.replies) == 5

    def test_max_batch_splits_oversized_groups(self):
        cluster = _cluster("mencius", BatchingOptions(max_batch=4, window_us=0))
        cluster.start()
        for _ in range(6):
            submit_payload(cluster, 0, b"x", client="c")
        cluster.run_for(ms_to_micros(50))
        sizes = sorted(
            len(u) for u in _logged_units(cluster) if isinstance(u, CommandBatch)
        )
        assert sizes == [2, 4]

    def test_window_delays_and_groups_later_submissions(self):
        window = ms_to_micros(2.0)
        cluster = _cluster("mencius", BatchingOptions(max_batch=64, window_us=window))
        cluster.start()
        submit_payload(cluster, 0, b"x", client="c")
        # A second command arrives inside the window and joins the batch.
        cluster.env.schedule(
            window // 2, lambda: submit_payload(cluster, 0, b"y", client="c")
        )
        cluster.run_for(ms_to_micros(60))
        batches = [u for u in _logged_units(cluster) if isinstance(u, CommandBatch)]
        assert [len(b) for b in batches] == [2]

    def test_size_triggered_flush_cancels_the_window_timer(self):
        # Regression: a size-triggered flush must cancel the armed window
        # event, else the stale timer fires early into the *next*
        # accumulation and splits it.
        window = ms_to_micros(10.0)
        cluster = _cluster("mencius", BatchingOptions(max_batch=2, window_us=window))
        cluster.start()
        submit_payload(cluster, 0, b"a", client="c")
        submit_payload(cluster, 0, b"b", client="c")  # size flush at t=0
        # Third and fourth commands arrive around where the stale timer
        # (armed at t=0 for t=10 ms) would fire; they must stay together.
        cluster.env.schedule(
            ms_to_micros(9.5), lambda: submit_payload(cluster, 0, b"x", client="c")
        )
        cluster.env.schedule(
            ms_to_micros(10.5), lambda: submit_payload(cluster, 0, b"y", client="c")
        )
        cluster.run_for(ms_to_micros(100))
        sizes = sorted(
            len(u) for u in _logged_units(cluster) if isinstance(u, CommandBatch)
        )
        assert sizes == [2, 2]
        assert len(cluster.replies) == 4

    def test_max_batch_one_is_identical_to_unbatched(self):
        seeds = []
        for batching in (None, BatchingOptions(max_batch=1, window_us=0)):
            cluster = _cluster("clock-rsm", batching)
            cluster.start()
            for i in range(4):
                submit_payload(cluster, 0, b"z%d" % i, client="c")
            cluster.run_for(ms_to_micros(50))
            seeds.append([str(cid) for cid in cluster.execution_orders()[0]])
        assert seeds[0] == seeds[1]
