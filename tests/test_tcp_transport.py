"""TCP transport robustness under the races the process launcher creates.

A multi-process deployment starts every replica concurrently, so the
transport must tolerate exactly the situations a single-process demo never
hits: connecting to a peer that has not started listening yet, a peer dying
mid-frame, sends racing the first connection to the same peer, protocol
traffic arriving before the replica's handler is wired up, and a replica
crashing and restarting on the transport it had.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import struct

import pytest

from repro.config import BatchingOptions, ClusterSpec
from repro.core.messages import ClockTime, Prepare
from repro.errors import TransportError
from repro.kvstore.commands import encode_put
from repro.kvstore.kv import KVStateMachine
from repro.net.message import Envelope, MessageRegistry, global_registry
from repro.net import tcp
from repro.net.tcp import (
    HELLO_BYTES, MAX_FRAME_BYTES, READ_BUFFER_BYTES, TcpTransport, encode_frame, encode_hello,
)  # fmt: skip
from repro.net.wire import encode
from repro.runtime.server import ReplicaServer
from repro.storage.memory_log import InMemoryLog
from repro.types import Command, CommandId, Timestamp

from tests.helpers import LOOPBACK_ANY_PORT, start_on_bound_ports


#: What a peer speaking this process's message table writes first.
HELLO = encode_hello(global_registry)


def _prepare(seqno: int) -> Prepare:
    return Prepare(
        Command(CommandId("tcp-test", seqno), b"p%d" % seqno), Timestamp(seqno + 1, 0)
    )


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_start_is_idempotent(self):
        async def scenario():
            transport = TcpTransport(0, "127.0.0.1:0", {})
            await transport.start()
            first = transport.bound_address
            await transport.start()  # must not rebind
            assert transport.bound_address == first
            await transport.stop()

        run(scenario())

    def test_bound_address_resolves_ephemeral_port(self):
        async def scenario():
            transport = TcpTransport(0, "127.0.0.1:0", {})
            with pytest.raises(TransportError):
                transport.bound_address
            await transport.start()
            host, port = transport.bound_address.rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            await transport.stop()

        run(scenario())

    def test_set_peers_installs_addresses_after_construction(self):
        async def scenario():
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received = asyncio.get_running_loop().create_future()
            receiver.set_handler(lambda env: received.set_result(env.message))
            await receiver.start()
            sender = TcpTransport(0, "127.0.0.1:0", {})  # no peers yet
            await sender.start()
            sender.set_peers({1: receiver.bound_address})
            sender.send(Envelope(0, 1, _prepare(7)))
            message = await asyncio.wait_for(received, timeout=5)
            assert message.command.command_id.seqno == 7
            await sender.stop()
            await receiver.stop()

        run(scenario())


class TestConnectBeforeListen:
    def test_send_retries_until_peer_listens(self):
        async def scenario():
            port = _free_port()
            addresses = {1: f"127.0.0.1:{port}"}
            sender = TcpTransport(0, "127.0.0.1:0", addresses, connect_retries=30)
            await sender.start()
            sender.send(Envelope(0, 1, _prepare(0)))  # nobody is listening yet

            await asyncio.sleep(0.2)
            receiver = TcpTransport(1, f"127.0.0.1:{port}", {})
            received = asyncio.get_running_loop().create_future()
            receiver.set_handler(lambda env: received.set_result(env.message))
            await receiver.start()

            message = await asyncio.wait_for(received, timeout=5)
            assert message.command.command_id.seqno == 0
            await sender.stop()
            await receiver.stop()

        run(scenario())

    def test_without_retries_send_still_fails_softly(self):
        async def scenario():
            port = _free_port()
            sender = TcpTransport(0, "127.0.0.1:0", {1: f"127.0.0.1:{port}"})
            await sender.start()
            sender.send(Envelope(0, 1, _prepare(0)))  # dropped with a warning
            await asyncio.sleep(0.1)  # the send task must not blow up the loop
            await sender.stop()

        run(scenario())


class TestPeerKilledMidFrame:
    def test_partial_frame_discarded_and_reconnect_resumes(self):
        async def scenario():
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            done = asyncio.Event()
            receiver.set_handler(
                lambda env: (received.append(env.message), done.set())
            )
            await receiver.start()
            host, port = receiver.bound_address.rsplit(":", 1)

            # A peer connects, announces a 100-byte frame, ships only part of
            # it, and dies (abort: RST, no graceful shutdown).
            _, writer = await asyncio.open_connection(host, int(port))
            writer.write(HELLO + struct.pack(">I", 100) + b"half a frame")
            await writer.drain()
            writer.transport.abort()
            await asyncio.sleep(0.1)

            # A fresh connection delivers a complete frame; the dead peer's
            # partial bytes must not have corrupted the receiver's state.
            _, writer = await asyncio.open_connection(host, int(port))
            writer.write(HELLO + encode_frame(Envelope(0, 1, _prepare(3)), global_registry))
            await writer.drain()
            await asyncio.wait_for(done.wait(), timeout=5)
            writer.close()

            assert [m.command.command_id.seqno for m in received] == [3]
            await receiver.stop()

        run(scenario())


class TestDuplicateConnectionRace:
    def test_concurrent_first_sends_share_one_connection(self):
        async def scenario():
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            done = asyncio.Event()
            receiver.set_handler(
                lambda env: (
                    received.append(env.message),
                    done.set() if len(received) == 8 else None,
                )
            )
            connections = 0
            inner = receiver._accept

            def counting():
                # The listener's protocol factory runs once per accepted connection.
                nonlocal connections
                connections += 1
                return inner()

            receiver._accept = counting
            await receiver.start()

            sender = TcpTransport(0, "127.0.0.1:0", {1: receiver.bound_address})
            await sender.start()
            # Eight unbatched sends, each its own frame, all issued before the
            # first connection to replica 1 exists.
            for index in range(8):
                sender.send(Envelope(0, 1, _prepare(index)))
            await asyncio.wait_for(done.wait(), timeout=5)

            assert connections == 1
            assert sorted(m.command.command_id.seqno for m in received) == list(range(8))
            await sender.stop()
            await receiver.stop()

        run(scenario())


class TestFifoThroughConnectionSetup:
    def test_sends_before_during_and_right_after_the_connect_arrive_in_send_order(
        self, monkeypatch
    ):
        # Clock-RSM's stability rule needs each channel in send order.  The
        # dangerous instants are the connect's: frames that waited for the
        # connection must leave before any send issued once it exists.
        # A short backoff keeps the retried connect close to the receiver's start.
        monkeypatch.setattr(tcp, "CONNECT_BACKOFF_S", 0.005)

        async def scenario():
            port = _free_port()
            sender = TcpTransport(0, "127.0.0.1:0", {1: f"127.0.0.1:{port}"}, connect_retries=200)
            receiver = TcpTransport(1, f"127.0.0.1:{port}", {})
            received: list = []
            receiver.set_handler(lambda env: received.append(env.message.command.command_id.seqno))
            await sender.start()
            sent = 0

            async def send_one_per_tick(ticks: int) -> None:
                nonlocal sent
                for _ in range(ticks):
                    sender.send(Envelope(0, 1, _prepare(sent)))
                    sent += 1
                    await asyncio.sleep(0)

            try:
                # Before the first connect succeeds: nobody listens yet.
                await send_one_per_tick(20)
                await receiver.start()
                # While the retried connect is under way, as it completes and
                # just after: one send every loop tick until frames arrive.
                while not received:
                    await send_one_per_tick(1)
                await send_one_per_tick(20)
                for _ in range(500):  # at most 5 s for the rest to arrive
                    if len(received) >= sent:
                        break
                    await asyncio.sleep(0.01)
            finally:
                await sender.stop()
                await receiver.stop()
            assert received == list(range(sent))

        run(scenario())


class TestCrashRestart:
    def test_a_replica_restarted_on_its_transport_commits_again(self):
        # Regression: crash() closed the TcpTransport for good, so the
        # restarted replica dropped every send and its next command timed out.
        async def scenario():
            spec = ClusterSpec.from_sites(["CA", "VA", "IR"])
            servers = [
                ReplicaServer(
                    "clock-rsm", rid, spec, KVStateMachine(),
                    transport=TcpTransport(rid, LOOPBACK_ANY_PORT, {}),
                    log=InMemoryLog(),
                )  # fmt: skip
                for rid in spec.replica_ids
            ]
            await start_on_bound_ports(servers)
            origin = servers[0]
            try:
                put = Command(CommandId("restart", 1), encode_put("k", b"v1"))
                assert await origin.submit(put, timeout=3) is None
                origin.crash()
                origin.restart(KVStateMachine())
                # The recovered replica replayed its log: the put sees v1.
                put = Command(CommandId("restart", 2), encode_put("k", b"v2"))
                assert await origin.submit(put, timeout=3) == b"v1"
            finally:
                for server in servers:
                    await server.stop()

        run(scenario())

    def test_close_drops_only_what_was_queued(self):
        async def scenario():
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            done = asyncio.Event()
            receiver.set_handler(lambda env: (received.append(env.message), done.set()))
            await receiver.start()
            sender = TcpTransport(
                0, "127.0.0.1:0", {1: receiver.bound_address},
                batching=BatchingOptions(max_batch=8),
            )  # fmt: skip
            await sender.start()
            try:
                sender.send(Envelope(0, 1, ClockTime(1)))  # still accumulating ...
                sender.close()  # ... so the departing host's message is dropped
                sender.send(Envelope(0, 1, ClockTime(2)))  # the next host's is not
                await asyncio.wait_for(done.wait(), timeout=5)
                await asyncio.sleep(0.05)
            finally:
                await sender.stop()
                await receiver.stop()
            assert received == [ClockTime(2)]

        run(scenario())


class TestEarlyTraffic:
    def test_envelopes_before_handler_are_buffered_then_flushed_in_order(self):
        async def scenario():
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            await receiver.start()  # note: no handler registered yet
            host, port = receiver.bound_address.rsplit(":", 1)

            _, writer = await asyncio.open_connection(host, int(port))
            writer.write(HELLO)
            for index in range(3):
                writer.write(
                    encode_frame(Envelope(0, 1, _prepare(index)), global_registry)
                )
            await writer.drain()
            await asyncio.sleep(0.1)

            received: list = []
            receiver.set_handler(lambda env: received.append(env.message))
            assert [m.command.command_id.seqno for m in received] == [0, 1, 2]

            # Traffic after the handler is set flows directly.
            done = asyncio.Event()
            receiver.set_handler(
                lambda env: (received.append(env.message), done.set())
            )
            writer.write(encode_frame(Envelope(0, 1, _prepare(9)), global_registry))
            await writer.drain()
            await asyncio.wait_for(done.wait(), timeout=5)
            assert received[-1].command.command_id.seqno == 9

            writer.close()
            await receiver.stop()

        run(scenario())


class TestStopEndsEverythingItStarted:
    def test_no_pending_task_and_no_loop_error_after_stop(self):
        # Regression: stop() used to return with one _handle_connection task
        # per accepted connection still pending; closing the loop cancelled
        # them and asyncio reported each as "Exception in callback ...
        # CancelledError()".
        reports: list = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: reports.append(context))
            before = asyncio.all_tasks()
            first = TcpTransport(0, "127.0.0.1:0", {})
            second = TcpTransport(1, "127.0.0.1:0", {})
            arrived = asyncio.Event()
            first.set_handler(lambda env: arrived.set())
            second.set_handler(lambda env: arrived.set())
            await first.start()
            await second.start()
            first.set_peers({1: second.bound_address})
            second.set_peers({0: first.bound_address})
            # One connection each way, so each end has accepted one.
            for sender, src, dst in ((first, 0, 1), (second, 1, 0)):
                arrived.clear()
                sender.send(Envelope(src, dst, _prepare(src)))
                await asyncio.wait_for(arrived.wait(), timeout=5)
            # Something still queued when stop() runs: its sender task must end too.
            first.send(Envelope(0, 1, _prepare(9)))
            await first.stop()
            await second.stop()
            leaked = asyncio.all_tasks() - before
            assert not leaked, [task.get_coro().__qualname__ for task in leaked]

        run(scenario())
        assert reports == []  # nor anything reported while the loop closed


def _framed(*values) -> bytes:
    """A length prefix, then *values* as one registry value stream."""
    frame = bytearray(4)
    size = global_registry.encode_many_into(frame, values)
    frame[:4] = struct.pack(">I", size)
    return bytes(frame)


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "frame",
        [
            struct.pack(">I", 5) + b"ZZZZZ",
            struct.pack(">I", MAX_FRAME_BYTES + 1),
            struct.pack(">I", 9) + encode(5),
            _framed({"src": 0, "dst": 1, "message": ClockTime(1), "junk": 1}),
            _framed({"src": 0, "dst": 1, "message": ClockTime(1), "batch": 1}),
            _framed({"src": 0, "dst": 1, "batch": True}, ClockTime(1)),
            _framed({"src": 0, "dst": 1, "message": 42}),
            _framed({"src": 0, "dst": 1, "batch": 1}, "not a message"),
        ],
        ids=[
            "garbage-body", "oversize-prefix", "value-that-is-no-envelope",
            "header-with-an-extra-key", "header-with-message-and-batch", "batch-count-that-is-a-bool",
            "message-that-is-an-int", "batch-element-that-is-a-str",
        ],
    )  # fmt: skip
    def test_bad_frame_closes_only_the_offending_connection(self, frame, caplog):
        # Regression: a CodecError/TransportError from the frame reader ended
        # the handler task with "Unhandled exception in client_connected_cb".
        reports: list = []
        offender: list = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: reports.append(context))
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            done = asyncio.Event()
            receiver.set_handler(lambda env: (received.append(env.message), done.set()))
            await receiver.start()
            host, port = receiver.bound_address.rsplit(":", 1)
            _, good_writer = await asyncio.open_connection(host, int(port))
            bad_reader, bad_writer = await asyncio.open_connection(host, int(port))
            offender.append(bad_writer.get_extra_info("sockname")[1])

            bad_writer.write(HELLO + frame)
            await bad_writer.drain()
            # The receiver hangs up on the offender (EOF) ...
            assert await asyncio.wait_for(bad_reader.read(), timeout=5) == b""
            # ... and keeps serving the connection that was open beside it.
            good_writer.write(HELLO + encode_frame(Envelope(0, 1, _prepare(3)), global_registry))
            await good_writer.drain()
            await asyncio.wait_for(done.wait(), timeout=5)
            assert [m.command.command_id.seqno for m in received] == [3]

            bad_writer.close()
            good_writer.close()
            await receiver.stop()

        with caplog.at_level(logging.WARNING, logger="repro.net.tcp"):
            run(scenario())
        assert reports == []
        (warning,) = [r for r in caplog.records if r.name == "repro.net.tcp"]
        assert "malformed frame" in warning.getMessage()
        assert str(offender[0]) in warning.getMessage()  # names the peer


class TestLargeFrames:
    def test_a_frame_larger_than_the_read_buffer_arrives_intact(self):
        # One batch frame of 64 PREPAREs, about 1 MiB: sixteen read buffers.
        messages = [
            Prepare(Command(CommandId("big", i), bytes([i]) * (16 * 1024)), Timestamp(i + 1, 0))
            for i in range(64)
        ]

        async def scenario():
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            done = asyncio.Event()
            receiver.set_handler(
                lambda env: (received.append(env.message), len(received) == 65 and done.set())
            )
            await receiver.start()
            sender = TcpTransport(
                0, "127.0.0.1:0", {1: receiver.bound_address},
                batching=BatchingOptions(max_batch=64),
            )  # fmt: skip
            await sender.start()
            try:
                for message in messages:  # one tick: one write unit, one frame
                    sender.send(Envelope(0, 1, message))
                await asyncio.sleep(0.05)
                sender.send(Envelope(0, 1, ClockTime(7)))  # a small frame behind it
                await asyncio.wait_for(done.wait(), timeout=10)
                (connection,) = receiver._connections
                free = len(connection._parser.get_buffer())
            finally:
                await sender.stop()
                await receiver.stop()
            return received, free

        received, free = run(scenario())
        assert received == [*messages, ClockTime(7)]
        assert free == READ_BUFFER_BYTES  # back at its base size, and empty


class TestHello:
    """Every connection starts with its sender's message-table digest."""

    @staticmethod
    def _refusals(caplog) -> list[str]:
        return [
            r.getMessage() for r in caplog.records
            if r.name == "repro.net.tcp" and "refused the connection" in r.getMessage()
        ]  # fmt: skip

    def test_a_peer_with_another_message_table_is_refused_and_both_ends_log_it(self, caplog):
        other = MessageRegistry()
        other.register(ClockTime)  # the same class, another table

        async def scenario():
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            receiver.set_handler(received.append)
            await receiver.start()
            sender = TcpTransport(0, "127.0.0.1:0", {1: receiver.bound_address}, registry=other)
            await sender.start()
            try:
                sender.send(Envelope(0, 1, ClockTime(1)))
                for _ in range(250):
                    if len(self._refusals(caplog)) == 2 and 1 not in sender._peers:
                        break
                    await asyncio.sleep(0.02)
            finally:
                await sender.stop()
                await receiver.stop()
            return received

        with caplog.at_level(logging.WARNING, logger="repro.net.tcp"):
            received = run(scenario())
        assert received == []  # nothing from the refused connection was dispatched
        refusals = self._refusals(caplog)
        assert len(refusals) == 2
        theirs, ours = encode_hello(other).hex(), HELLO.hex()
        assert any(m.startswith("replica 1:") and f"its hello {theirs} is not this replica's {ours}" in m for m in refusals)
        assert any(m.startswith("replica 0:") and f"its hello {ours} is not this replica's {theirs}" in m for m in refusals)

    def test_a_connection_without_a_hello_gets_the_acceptors_and_is_closed(self, caplog):
        async def scenario():
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            receiver.set_handler(received.append)
            await receiver.start()
            host, port = receiver.bound_address.rsplit(":", 1)
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(2 * encode_frame(Envelope(0, 1, _prepare(3)), global_registry))
            await writer.drain()
            answer = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await receiver.stop()
            return answer, received

        with caplog.at_level(logging.WARNING, logger="repro.net.tcp"):
            answer, received = run(scenario())
        assert answer == HELLO and len(answer) == HELLO_BYTES
        assert received == []
        assert len(self._refusals(caplog)) == 1

    def test_a_hello_split_across_segments_is_accepted(self):
        async def scenario():
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            done = asyncio.Event()
            receiver.set_handler(lambda env: (received.append(env.message), done.set()))
            await receiver.start()
            host, port = receiver.bound_address.rsplit(":", 1)
            _, writer = await asyncio.open_connection(host, int(port))
            stream = HELLO + encode_frame(Envelope(0, 1, _prepare(3)), global_registry)
            for piece in (stream[:3], stream[3:HELLO_BYTES - 1], stream[HELLO_BYTES - 1 : HELLO_BYTES + 2], stream[HELLO_BYTES + 2 :]):
                writer.write(piece)
                await writer.drain()
                await asyncio.sleep(0.01)
            await asyncio.wait_for(done.wait(), timeout=5)
            writer.close()
            await receiver.stop()
            return received

        assert [m.command.command_id.seqno for m in run(scenario())] == [3]


class _Unregistered:
    pass


class TestUnencodableMessage:
    @pytest.mark.parametrize(
        "max_batch, sent, expected",
        [
            (1, [ClockTime(1), _Unregistered(), ClockTime(2)], [ClockTime(1), ClockTime(2)]),
            # Write units of two: the offender takes ClockTime(3) down with it, nothing else.
            (
                2,
                [ClockTime(1), ClockTime(2), _Unregistered(), ClockTime(3), ClockTime(4)],
                [ClockTime(1), ClockTime(2), ClockTime(4)],
            ),
        ],
        ids=["single-frames", "batch-frames"],
    )
    def test_only_the_offending_write_unit_is_dropped(self, max_batch, sent, expected, caplog):
        # Regression: encode_frame raised outside the sender task's try, so a
        # message of an unregistered class ended the task with an exception
        # nobody retrieved and stranded whatever was queued behind it until
        # some later send() happened to restart the drain.
        reports: list = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, context: reports.append(context))
            receiver = TcpTransport(1, "127.0.0.1:0", {})
            received: list = []
            complete = asyncio.Event()
            receiver.set_handler(
                lambda env: (
                    received.append(env.message),
                    len(received) == len(expected) and complete.set(),
                )
            )
            await receiver.start()
            sender = TcpTransport(
                0,
                "127.0.0.1:0",
                {1: receiver.bound_address},
                batching=BatchingOptions(max_batch=max_batch),
            )
            await sender.start()
            for message in sent:
                sender.send(Envelope(0, 1, message))
            await asyncio.wait_for(complete.wait(), timeout=5)  # no further send() needed
            assert received == expected
            await sender.stop()
            await receiver.stop()

        with caplog.at_level(logging.WARNING, logger="repro.net.tcp"):
            run(scenario())
        assert reports == []  # no "Task exception was never retrieved"
        (warning,) = [r for r in caplog.records if r.name == "repro.net.tcp"]
        assert "cannot frame" in warning.getMessage()
        assert "_Unregistered" in warning.getMessage()  # names the error
