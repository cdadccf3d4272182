"""What a replica keeps per executed command: nothing the collector tracks.

A replica logs every command and records every executed id.  Held as
objects, that history is what CPython's cyclic collector walks on each full
pass, and it grows with the run.  The log stores records packed (one tuple of
atoms each, untracked after the collector first sees it), the execution order
is two arrays, and the slot ledger forgets executed slots — so the number of
tracked objects a replica holds stays flat however long it runs.

The walk counts objects reachable from the replica, stopping at types,
modules and clocks (in the simulator a clock reads the environment, which
leads to every event in flight rather than to the replica's own state).
"""

from __future__ import annotations

import asyncio
import gc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.base import Clock
from repro.config import BatchingOptions, ClusterSpec
from repro.core.messages import CommitRecord, PrepareRecord
from repro.errors import ClientError, StorageError
from repro.net.latency import LatencyMatrix
from repro.protocols.base import ExecutionOrder
from repro.protocols.records import AcceptRecord, CommandBatch, DecideRecord, SkipRecord
from repro.runtime.driver import AsyncReplicaDriver
from repro.runtime.local import LocalAsyncCluster
from repro.sim.cluster import SimulatedCluster
from repro.storage.memory_log import InMemoryLog
from repro.types import Command, CommandId, Timestamp, ms_to_micros

from tests.helpers import ALL_PROTOCOLS, log_of, submit_payload

SITES = ["CA", "VA", "IR"]


def tracked_reachable(root: object) -> int:
    """Tracked objects reachable from *root*, after a full collection."""
    gc.collect()
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        count += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if isinstance(ref, (type, types.ModuleType, Clock)) or id(ref) in seen:
                continue
            seen.add(id(ref))
            stack.append(ref)
    return count


# ---------------------------------------------------------------------------
# The heap stays flat
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_sim_replica_heap_does_not_grow_with_executed_commands(protocol, batched):
    cluster = SimulatedCluster(
        ClusterSpec.from_sites(SITES),
        LatencyMatrix.uniform(SITES, one_way=ms_to_micros(1.0)),
        protocol,
        batching=BatchingOptions(max_batch=8, window_us=0) if batched else None,
    )
    counts = []
    submitted = 0
    for target in (1_000, 3_000):
        while submitted < target:
            # Four commands per site per millisecond: four units unbatched,
            # one batch of four batched.
            for rid in range(len(SITES)):
                for _ in range(4):
                    submit_payload(cluster, rid, b"x", client=f"c{rid}")
            submitted += 4 * len(SITES)
            cluster.run_for(ms_to_micros(1.0))
        cluster.run_for(ms_to_micros(20.0))  # drain: nothing left in flight
        replica = cluster.replica(0)
        assert replica.executed_count == submitted
        counts.append(tracked_reachable(replica))
    assert counts[1] <= counts[0], f"tracked objects grew {counts[0]} -> {counts[1]}"


def test_live_replica_heap_does_not_grow_with_executed_commands():
    async def scenario() -> list[int]:
        cluster = LocalAsyncCluster(
            "clock-rsm", ClusterSpec.from_sites(SITES), batching=BatchingOptions(max_batch=16)
        )
        counts = []
        async with cluster:
            submitted = 0
            for target in (1_000, 3_000):
                while submitted < target:
                    await asyncio.gather(
                        *(cluster.submit(rid, b"x")
                          for rid in range(len(SITES)) for _ in range(20))
                    )
                    submitted += 20 * len(SITES)
                replicas = [server.replica for server in cluster.servers.values()]
                for _ in range(200):
                    if all(r.executed_count == submitted for r in replicas):
                        break
                    await asyncio.sleep(0.005)
                assert replicas[0].executed_count == submitted
                counts.append(tracked_reachable(replicas[0]))
        return counts

    before, after = asyncio.run(scenario())
    assert after <= before, f"tracked objects grew {before} -> {after}"


# ---------------------------------------------------------------------------
# Packed log records
# ---------------------------------------------------------------------------

_clients = st.sampled_from(["c", "client-1", "é", ""])
_seqnos = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_commands = st.builds(
    Command,
    st.builds(CommandId, _clients, _seqnos),
    st.binary(max_size=16),
    st.integers(min_value=0, max_value=2**62),
)
_units = st.one_of(
    _commands,
    st.lists(_commands, min_size=1, max_size=5).map(lambda c: CommandBatch(tuple(c))),
)
_timestamps = st.builds(Timestamp, st.integers(min_value=0, max_value=2**62), st.integers(0, 6))
_slots = st.integers(min_value=0, max_value=2**40)
_records = st.one_of(
    st.builds(PrepareRecord, _units, _timestamps),
    st.builds(CommitRecord, _timestamps),
    st.builds(AcceptRecord, _slots, _units),
    st.builds(DecideRecord, _slots),
    st.builds(SkipRecord, _slots),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_records, max_size=12))
def test_every_record_survives_append_and_records(records):
    log = InMemoryLog()
    for record in records:
        log.append(record)
    assert list(log.records()) == records
    # Types matter where equality alone would not show them: a one-command
    # batch stays a batch, a bare command stays bare.
    for logged, record in zip(log.records(), records):
        assert type(logged) is type(record)
        unit = getattr(record, "command", None)
        assert type(getattr(logged, "command", None)) is type(unit)


@settings(max_examples=25, deadline=None)
@given(st.lists(_records, max_size=8))
def test_the_log_keeps_the_same_records_across_handover(records):
    log = log_of(records)
    # A recovering replica is handed what the crashed one logged.
    handed_over = log_of(log.records())
    assert list(handed_over.records()) == records
    assert list(log.records()) == records


def test_nothing_the_log_holds_is_tracked_once_the_collector_has_seen_it():
    command = Command(CommandId("c", 1), b"p", created_at=7)
    batch = CommandBatch((command, Command(CommandId("c", 2), b"")))
    log = InMemoryLog()
    empty = tracked_reachable(log)
    for slot in range(100):
        for record in (
            PrepareRecord(batch, Timestamp(slot, 0)),
            CommitRecord(Timestamp(slot, 0)),
            AcceptRecord(slot, command),
            DecideRecord(slot),
            SkipRecord(slot),
        ):
            log.append(record)
    assert tracked_reachable(log) == empty


def test_a_record_without_a_packed_layout_is_refused():
    log = InMemoryLog()
    with pytest.raises(StorageError):
        log.append("not a log record")
    assert len(log) == 0


def test_remove_if_rebuilds_equal_records():
    command = Command(CommandId("c", 1), b"p", created_at=7)
    records = [
        PrepareRecord(command, Timestamp(10, 0)),
        PrepareRecord(CommandBatch((command,)), Timestamp(20, 1)),
        CommitRecord(Timestamp(10, 0)),
    ]
    log = log_of(records)
    assert log.remove_if(lambda r: isinstance(r, CommitRecord)) == 1
    assert list(log.records()) == records[:2]


# ---------------------------------------------------------------------------
# The execution order
# ---------------------------------------------------------------------------


def test_execution_order_reads_like_the_list_it_replaces():
    commands = [Command(CommandId(client, seqno), b"") for client, seqno in
                [("a", 1), ("b", 1), ("a", 2), ("__noop__", 5), ("b", -(2**63))]]
    order = ExecutionOrder()
    order.add(commands[:2])
    order.add(commands[2:])
    ids = [c.command_id for c in commands]
    assert len(order) == len(ids)
    assert list(order) == ids
    assert order == ids
    assert order != ids[:-1]
    assert [order[i] for i in range(len(ids))] == ids
    assert order[-1] == ids[-1]
    with pytest.raises(IndexError):
        order[len(ids)]


# ---------------------------------------------------------------------------
# Seqnos are refused at submission, not after agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seqno", [2**63, -(2**63) - 1])
def test_sim_submit_refuses_a_seqno_outside_signed_64_bits(seqno):
    cluster = SimulatedCluster(
        ClusterSpec.from_sites(SITES), LatencyMatrix.uniform(SITES, one_way=1_000), "clock-rsm"
    )
    with pytest.raises(ClientError):
        cluster.submit(0, Command(CommandId("c", seqno), b"x"))
    edge = cluster.submit(0, Command(CommandId("c", 2**63 - 1), b"x"))
    cluster.run_for(ms_to_micros(20.0))
    assert list(cluster.replica(0).execution_order) == [edge.command_id]


def test_live_submit_refuses_a_seqno_outside_signed_64_bits():
    async def scenario() -> None:
        async with LocalAsyncCluster("paxos", ClusterSpec.from_sites(SITES)) as cluster:
            server = cluster.servers[0]
            with pytest.raises(ClientError):
                await server.submit(Command(CommandId("c", 2**64), b"x"), timeout=1.0)
            await server.submit(Command(CommandId("c", -(2**63)), b"x"), timeout=5.0)
            assert list(server.replica.execution_order) == [CommandId("c", -(2**63))]

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# The driver counts the flight records it sheds
# ---------------------------------------------------------------------------


class _SilentReplica:
    """A replica that accepts every command and never replies."""

    replica_id = 0
    stopped = False

    def on_client_request(self, _unit):
        return []


class _NullTransport:
    def set_handler(self, _handler):
        pass

    def send(self, _envelope):
        pass


def test_driver_counts_the_flight_records_it_sheds():
    driver = AsyncReplicaDriver(_SilentReplica(), _NullTransport())
    for seqno in range(65_537):
        driver.submit(Command(CommandId("c", seqno), b""))
    assert driver.shed_count == 0
    driver.submit(Command(CommandId("c", 65_537), b""))
    assert driver.shed_count == 32_768
    for seqno in range(65_538, 65_538 + 32_767):
        driver.submit(Command(CommandId("c", seqno), b""))
    assert driver.shed_count == 32_768
    driver.submit(Command(CommandId("c", 98_305), b""))
    assert driver.shed_count == 65_536
