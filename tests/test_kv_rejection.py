"""A payload the key-value codec rejects must not outlive agreement as a crash.

``KVStateMachine.apply`` runs after a command is agreed on and logged — on
every replica.  If it raised for an undecodable payload, one such command
would abort the simulator, kill a TCP connection handler, and leave the
commands batched behind it unexecuted and unanswered.  ``apply`` is total
instead: the command counts, changes nothing, and its client is told so.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.checker.history import HistoryRecorder
from repro.checker.linearizability import check_history
from repro.config import BatchingOptions, ClusterSpec
from repro.kvstore.commands import REJECTED, encode_get, encode_put
from repro.kvstore.kv import KVStateMachine
from repro.net.wire import decode, encode
from repro.types import Command, CommandId

from tests.helpers import (
    make_cluster,
    make_command,
    start_on_bound_ports,
    submit_payload,
    tcp_servers,
)

GARBAGE = b"\x00garbage"
#: good, garbage, good — the third must see the first's write.
SCENARIO = (encode_put("k", b"1"), GARBAGE, encode_get("k"))
EXPECTED = [None, REJECTED, b"1"]

ONE_BATCH = BatchingOptions(max_batch=8, window_us=0)


class TestApplyIsTotal:
    @pytest.mark.parametrize(
        "payload",
        [GARBAGE, b"", encode(["put", "key-only"]), encode(["increment", "k", b""]),
         encode_put("k", b"v") + b"\x00", encode_put("k", b"v")[:-1]],
    )
    def test_rejected_payload_counts_and_changes_nothing(self, payload):
        machine = KVStateMachine()
        machine.apply(make_command(1, encode_put("k", b"v")))
        before = decode(machine.snapshot())["data"]
        assert machine.apply(make_command(2, payload)) == REJECTED
        assert machine.applied_count == 2
        assert decode(machine.snapshot())["data"] == before

    def test_rejection_is_no_legitimate_output_and_crosses_the_wire(self):
        assert REJECTED is not None and not isinstance(REJECTED, (bytes, bool))
        assert decode(encode(REJECTED)) == REJECTED


class TestSimCluster:
    @pytest.mark.parametrize("batching", [None, ONE_BATCH], ids=["unbatched", "one-batch"])
    def test_good_garbage_good(self, any_protocol, batching):
        cluster = make_cluster(any_protocol, use_kv=True, batching=batching)
        recorder = HistoryRecorder(cluster)
        commands = [submit_payload(cluster, 0, payload) for payload in SCENARIO]
        cluster.run_for(2_000_000)

        outputs = {reply.command_id: reply.output for reply in cluster.replies}
        assert [outputs[c.command_id] for c in commands] == EXPECTED
        ids = [c.command_id for c in commands]
        assert all(order == ids for order in cluster.execution_orders().values())
        machines = [cluster.state_machine(r.replica_id) for r in cluster.replicas()]
        assert {m.snapshot() for m in machines} == {machines[0].snapshot()}
        assert machines[0].applied_count == 3

        # One opaque op makes the whole history opaque; the order evidence
        # still yields a verdict.
        report = check_history(recorder.finish())
        assert report.linearizable and report.completed == 3


class TestTcpCluster:
    def test_good_garbage_good_in_one_batch(self):
        async def scenario():
            unhandled: list[dict] = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unhandled.append(context)
            )
            spec = ClusterSpec.from_sites(["CA", "VA", "IR"])
            servers = tcp_servers("clock-rsm", spec, ONE_BATCH)
            await start_on_bound_ports(servers)
            try:
                # Submitted in one tick to a remote replica's peers: the batch
                # reaches replicas 1 and 2 through a connection handler.
                outputs = await asyncio.gather(*(
                    servers[0].submit(Command(CommandId("c", seq), payload), timeout=10)
                    for seq, payload in enumerate(SCENARIO)
                ))
                # A later command still gets through every connection.
                late = await servers[1].submit(
                    Command(CommandId("d", 0), encode_get("k")), timeout=10
                )
                while any(s.replica.executed_count < 4 for s in servers):
                    await asyncio.sleep(0.01)
            finally:
                for server in servers:
                    await server.stop()
            orders = [s.replica.execution_order for s in servers]
            snapshots = {s.replica.state_machine.snapshot() for s in servers}
            return outputs, late, orders, snapshots, unhandled

        outputs, late, orders, snapshots, unhandled = asyncio.run(
            asyncio.wait_for(scenario(), timeout=30)
        )
        assert outputs == EXPECTED
        assert late == b"1"
        assert orders[0] == orders[1] == orders[2] and len(orders[0]) == 4
        assert len(snapshots) == 1
        assert unhandled == []
