"""Tests for the asyncio runtime: drivers, servers, local clusters, TCP."""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.ec2 import ec2_latency_matrix
from repro.config import ClusterSpec, ProtocolConfig
from repro.errors import TransportError
from repro.kvstore.kv import KVStateMachine
from repro.net.message import Envelope, global_registry
from repro.net.tcp import decode_frame_envelopes, encode_frame
from repro.protocols.multipaxos import Phase2a
from repro.runtime.client import ReplicatedKVClient
from repro.runtime.local import LocalAsyncCluster
from repro.runtime.messages import ClientRequest, ClientResponse
from repro.types import Command, CommandId, Timestamp

from tests.helpers import LOOPBACK_ANY_PORT, start_on_bound_ports


def run(coro):
    return asyncio.run(coro)


class TestFrameCodec:
    def test_envelope_round_trip(self):
        command = Command(CommandId("c", 1), b"payload")
        envelope = Envelope(0, 2, Phase2a(7, command))
        frame = encode_frame(envelope, global_registry)
        # Skip the 4-byte length prefix when decoding the body directly.
        (decoded,) = decode_frame_envelopes(frame[4:], global_registry)
        assert decoded.src == 0 and decoded.dst == 2
        assert decoded.message == Phase2a(7, command)
        assert decoded.size_hint == len(frame) - 4

    def test_malformed_body_rejected(self):
        with pytest.raises(TransportError):
            decode_frame_envelopes(global_registry.encode({"nope": 1}), global_registry)

    def test_client_messages_round_trip(self):
        request = ClientRequest(Command(CommandId("cli", 9), b"x"))
        decoded = global_registry.decode(global_registry.encode(request))
        assert decoded == request
        response = ClientResponse(CommandId("cli", 9), b"result")
        assert global_registry.decode(global_registry.encode(response)) == response


def _spec(n: int = 3) -> ClusterSpec:
    return ClusterSpec.from_sites(["CA", "VA", "IR", "JP", "SG"][:n])


class TestLocalAsyncCluster:
    @pytest.mark.parametrize("protocol", ["clock-rsm", "paxos", "paxos-bcast", "mencius-bcast"])
    def test_replicated_kv_store_round_trip(self, protocol):
        async def scenario():
            cluster = LocalAsyncCluster(protocol, _spec(3), protocol_config=ProtocolConfig(leader=1))
            async with cluster:
                client_ca = ReplicatedKVClient(server=cluster.server_at("CA"))
                client_ir = ReplicatedKVClient(server=cluster.server_at("IR"))
                assert await client_ca.put("k", b"v1") is None
                assert await client_ir.get("k") == b"v1"
                assert await client_ir.put("k", b"v2") == b"v1"
                assert await client_ca.delete("k") is True
            return True

        assert run(scenario())

    def test_all_replicas_converge_to_the_same_state(self):
        async def scenario():
            cluster = LocalAsyncCluster("clock-rsm", _spec(3))
            async with cluster:
                client = ReplicatedKVClient(server=cluster.server_at("CA"))
                for i in range(10):
                    await client.put(f"key-{i}", bytes([i]))
                # Give followers a moment to apply the last commit.
                await asyncio.sleep(0.05)
                machines = [
                    server.replica.state_machine for server in cluster.servers.values()
                ]
                assert all(m.applied_count >= 10 for m in machines)
                assert len({m.snapshot() for m in machines}) == 1
            return True

        assert run(scenario())

    def test_injected_wan_delay_slows_commits_down(self):
        async def measure(latency):
            cluster = LocalAsyncCluster("clock-rsm", _spec(3), latency=latency)
            async with cluster:
                client = ReplicatedKVClient(server=cluster.server_at("CA"))
                loop = asyncio.get_running_loop()
                start = loop.time()
                await client.put("k", b"v")
                return loop.time() - start

        fast = run(measure(None))
        # Scale the EC2 delays down 10x to keep the test quick (~8.3 ms RTT).
        matrix = ec2_latency_matrix(["CA", "VA", "IR"])
        scaled = type(matrix)(
            matrix.sites,
            tuple(tuple(d // 10 for d in row) for row in matrix.one_way),
        )
        slow = run(measure(scaled))
        assert slow > fast
        assert slow >= 0.008  # at least one scaled CA-VA round trip

    def test_submit_helper_runs_raw_payloads(self):
        async def scenario():
            from repro.kvstore.commands import encode_put

            cluster = LocalAsyncCluster("paxos-bcast", _spec(3))
            async with cluster:
                output = await cluster.submit(0, encode_put("x", b"1"))
                assert output is None
            return True

        assert run(scenario())


class TestTcpServers:
    def test_replicas_and_clients_over_real_sockets(self):
        async def scenario():
            from repro.runtime.server import ReplicaServer

            spec = _spec(3)
            servers = [
                ReplicaServer(
                    "clock-rsm",
                    rid,
                    spec,
                    KVStateMachine(),
                    listen_address=LOOPBACK_ANY_PORT,
                    peer_addresses={},
                    client_address=LOOPBACK_ANY_PORT,
                )
                for rid in spec.replica_ids
            ]
            await start_on_bound_ports(servers)
            client_addresses = {s.replica_id: s.bound_client_address for s in servers}
            try:
                async with ReplicatedKVClient(address=client_addresses[0]) as client0:
                    assert await client0.put("tcp-key", b"over-the-wire") is None
                async with ReplicatedKVClient(address=client_addresses[2]) as client2:
                    assert await client2.get("tcp-key") == b"over-the-wire"
            finally:
                for server in servers:
                    await server.stop()
            return True

        assert run(scenario())
