"""The supervisor↔worker control channel: framing, phases, failure modes."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.errors import LaunchError
from repro.launch.control import (
    MAX_CONTROL_FRAME,
    connect_with_retry,
    expect,
    read_json,
    send_json,
)


def run(coro):
    return asyncio.run(coro)


async def _pipe():
    """A connected (client writer, server-side reader/writer) pair."""
    accepted: asyncio.Future = asyncio.get_running_loop().create_future()

    async def on_connect(reader, writer):
        if not accepted.done():
            accepted.set_result((reader, writer))

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client_reader, client_writer = await asyncio.open_connection("127.0.0.1", port)
    server_reader, server_writer = await accepted
    return server, client_reader, client_writer, server_reader, server_writer


class TestFraming:
    def test_round_trip(self):
        async def scenario():
            server, _cr, cw, sr, sw = await _pipe()
            await send_json(cw, {"type": "hello", "replica_id": 3, "pid": 42})
            message = await read_json(sr, timeout=5.0)
            assert message == {"type": "hello", "replica_id": 3, "pid": 42}
            cw.close()
            sw.close()
            server.close()

        run(scenario())

    def test_large_payloads_survive(self):
        async def scenario():
            server, _cr, cw, sr, sw = await _pipe()
            latencies = list(range(50_000))
            await send_json(cw, {"type": "result", "latencies_us": latencies})
            message = await read_json(sr, timeout=10.0)
            assert message["latencies_us"] == latencies
            cw.close()
            sw.close()
            server.close()

        run(scenario())

    def test_timeout_is_a_launch_error(self):
        async def scenario():
            server, _cr, cw, sr, sw = await _pipe()
            with pytest.raises(LaunchError, match="timed out.*worker 5"):
                await read_json(sr, timeout=0.05, who="worker 5")
            cw.close()
            sw.close()
            server.close()

        run(scenario())

    def test_eof_is_a_launch_error(self):
        async def scenario():
            server, _cr, cw, sr, sw = await _pipe()
            cw.close()
            with pytest.raises(LaunchError, match="closed unexpectedly"):
                await read_json(sr, timeout=5.0)
            sw.close()
            server.close()

        run(scenario())

    def test_writing_to_a_closed_peer_is_a_launch_error(self):
        # A worker that died resets its control connection: the next write
        # or drain fails with an OSError, which must reach the caller typed
        # and naming the peer, not as a bare ConnectionResetError.
        async def scenario():
            server, _cr, cw, _sr, sw = await _pipe()
            sw.transport.abort()
            server.close()
            with pytest.raises(LaunchError, match="worker 4 closed unexpectedly"):
                for _ in range(200):
                    await send_json(cw, {"type": "run"}, who="worker 4")
                    await asyncio.sleep(0.005)
            cw.close()

        run(scenario())

    def test_a_read_failing_with_any_os_error_is_a_launch_error(self):
        class _BrokenReader:
            async def readexactly(self, _n):
                raise BrokenPipeError("worker gone")

        with pytest.raises(LaunchError, match="worker 3 closed unexpectedly"):
            run(read_json(_BrokenReader(), timeout=1.0, who="worker 3"))

    def test_malformed_json_rejected(self):
        async def scenario():
            server, _cr, cw, sr, sw = await _pipe()
            body = b"this is not json"
            cw.write(struct.pack(">I", len(body)) + body)
            await cw.drain()
            with pytest.raises(LaunchError, match="malformed"):
                await read_json(sr, timeout=5.0)
            cw.close()
            sw.close()
            server.close()

        run(scenario())

    def test_message_without_type_rejected(self):
        async def scenario():
            server, _cr, cw, sr, sw = await _pipe()
            body = b'{"replica_id": 1}'
            cw.write(struct.pack(">I", len(body)) + body)
            await cw.drain()
            with pytest.raises(LaunchError, match="lacks a type"):
                await read_json(sr, timeout=5.0)
            cw.close()
            sw.close()
            server.close()

        run(scenario())

    def test_oversized_frame_rejected_without_reading_it(self):
        async def scenario():
            server, _cr, cw, sr, sw = await _pipe()
            cw.write(struct.pack(">I", MAX_CONTROL_FRAME + 1))
            await cw.drain()
            with pytest.raises(LaunchError, match="exceeds limit"):
                await read_json(sr, timeout=5.0)
            cw.close()
            sw.close()
            server.close()

        run(scenario())


class TestExpect:
    def test_wrong_kind_rejected(self):
        async def scenario():
            server, _cr, cw, sr, sw = await _pipe()
            await send_json(cw, {"type": "bound", "address": "127.0.0.1:9"})
            with pytest.raises(LaunchError, match="expected a 'running'"):
                await expect(sr, "running", timeout=5.0, who="worker 0")
            cw.close()
            sw.close()
            server.close()

        run(scenario())

    def test_worker_error_surfaces_its_traceback(self):
        async def scenario():
            server, _cr, cw, sr, sw = await _pipe()
            await send_json(
                cw,
                {"type": "error", "error": "boom",
                 "traceback": "Traceback ...\nValueError: boom"},
            )
            with pytest.raises(LaunchError, match="ValueError: boom"):
                await expect(sr, "result", timeout=5.0, who="worker 2")
            cw.close()
            sw.close()
            server.close()

        run(scenario())


class TestConnectWithRetry:
    def test_retries_until_the_listener_appears(self):
        async def scenario():
            import socket

            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]

            async def listen_later():
                await asyncio.sleep(0.2)
                return await asyncio.start_server(
                    lambda r, w: None, "127.0.0.1", port
                )

            listener = asyncio.create_task(listen_later())
            reader, writer = await connect_with_retry("127.0.0.1", port, timeout=5.0)
            writer.close()
            (await listener).close()

        run(scenario())

    def test_gives_up_at_the_deadline(self):
        async def scenario():
            import socket

            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
            with pytest.raises(LaunchError, match="could not reach"):
                await connect_with_retry("127.0.0.1", port, timeout=0.3)

        run(scenario())
