"""Tests for the asyncio runtime: drivers, servers, local clusters, TCP."""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.ec2 import ec2_latency_matrix
from repro.config import ClusterSpec, ProtocolConfig
from repro.errors import TransportError
from repro.net.message import Envelope, global_registry
from repro.net.tcp import decode_frame_envelopes, encode_frame
from repro.net.transport import InMemoryNetwork, Transport
from repro.protocols.multipaxos import Phase2a
from repro.runtime.client import ReplicatedKVClient
from repro.runtime.local import LocalAsyncCluster
from repro.types import Command, CommandId

from tests.helpers import start_on_bound_ports, tcp_servers


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

    def test_one_client_keeps_operations_from_separate_tasks_in_flight(self):
        async def scenario():
            cluster = LocalAsyncCluster("clock-rsm", _spec(3))
            async with cluster:
                client = ReplicatedKVClient(server=cluster.server_at("VA"))
                puts = [asyncio.create_task(client.put(f"k{i}", b"%d" % i)) for i in range(8)]
                # All eight are submitted before the first one commits.
                await asyncio.sleep(0)
                assert len(cluster.server_at("VA")._pending) == 8
                assert await asyncio.gather(*puts) == [None] * 8
                reads = await asyncio.gather(*(client.get(f"k{i}") for i in range(8)))
                assert reads == [b"%d" % i for i in range(8)]
            return True

        assert run(scenario())

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
            servers = tcp_servers("clock-rsm", _spec(3))
            await start_on_bound_ports(servers)
            try:
                client0 = ReplicatedKVClient(servers[0])
                assert await client0.put("tcp-key", b"over-the-wire") is None
                client2 = ReplicatedKVClient(servers[2])
                assert await client2.get("tcp-key") == b"over-the-wire"
            finally:
                for server in servers:
                    await server.stop()
            return True

        assert run(scenario())

    @pytest.mark.parametrize("protocol", ["paxos", "paxos-bcast", "mencius-bcast"])
    def test_every_protocol_replicates_over_real_sockets(self, protocol):
        async def scenario():
            servers = tcp_servers(protocol, _spec(3))
            await start_on_bound_ports(servers)
            try:
                writer = ReplicatedKVClient(servers[1])
                assert await writer.put("tcp-key", b"v1") is None
                reader = ReplicatedKVClient(servers[2])
                assert await reader.put("tcp-key", b"v2") == b"v1"
                assert await writer.delete("tcp-key") is True
                assert await reader.get("tcp-key") is None
            finally:
                for server in servers:
                    await server.stop()
            return True

        assert run(scenario())

    def test_a_server_is_given_its_transport(self):
        from repro.kvstore.kv import KVStateMachine
        from repro.runtime.server import ReplicaServer

        with pytest.raises(TypeError, match="transport"):
            ReplicaServer("clock-rsm", 0, _spec(3), KVStateMachine())


class _RecordingTransport(Transport):
    """An in-process transport that records its lifecycle calls."""

    def __init__(self, local_id: int) -> None:
        super().__init__(local_id)
        self.calls: list[str] = []

    def send(self, envelope: Envelope) -> None:
        pass

    async def start(self) -> None:
        self.calls.append("start")

    async def stop(self) -> None:
        self.calls.append("stop")


class TestTransportLifecycle:
    def test_a_server_starts_and_stops_whatever_transport_it_is_given(self):
        from repro.kvstore.kv import KVStateMachine
        from repro.runtime.server import ReplicaServer

        async def scenario():
            transport = _RecordingTransport(0)
            server = ReplicaServer(
                "clock-rsm", 0, _spec(1), KVStateMachine(), transport=transport
            )
            await server.start()
            assert transport.calls == ["start"]
            await server.stop()
            return transport.calls

        assert run(scenario()) == ["start", "stop"]

    def test_an_in_process_transport_needs_no_start_or_stop(self):
        async def scenario():
            network = InMemoryNetwork()
            transport = network.transport_for(0)
            received = []
            transport.set_handler(received.append)
            await transport.start()
            transport.send(Envelope(0, 0, "self"))
            await transport.stop()
            transport.send(Envelope(0, 0, "still usable"))
            return [envelope.message for envelope in received]

        assert run(scenario()) == ["self", "still usable"]
