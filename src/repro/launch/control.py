"""The control channel between the supervisor and its workers.

Deliberately boring: length-prefixed (u32 big-endian) UTF-8 JSON messages on
one TCP connection per worker.  The protocol wire format
(:mod:`repro.net.wire`) is reserved for replica↔replica traffic; control
messages carry spec fragments and result payloads, which are plain
dictionaries anyway, and JSON keeps worker stderr dumps human-readable when
a deployment is being debugged.

Every message is a JSON object with a ``type`` key.  The conversation is
strictly request/response-free — each side knows whose turn it is from the
deployment phase — so the helpers here are just framing plus a
connect-with-retry (the supervisor's listener is up before workers spawn,
but the retry keeps worker startup robust to slow loops).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Optional

from ..errors import LaunchError

_LENGTH = struct.Struct(">I")

#: Control messages carry whole operation histories; allow them to be large,
#: but still bound the frame so a corrupt prefix cannot ask for gigabytes.
MAX_CONTROL_FRAME = 256 * 1024 * 1024


async def send_json(writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
    """Write one length-prefixed JSON control message."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_CONTROL_FRAME:
        raise LaunchError(f"control message too large: {len(body)} bytes")
    writer.write(_LENGTH.pack(len(body)) + body)
    await writer.drain()


async def read_json(
    reader: asyncio.StreamReader, timeout: Optional[float] = None, who: str = "peer"
) -> dict[str, Any]:
    """Read one control message; raises :class:`LaunchError` on EOF/timeout.

    *who* names the other side in error messages (e.g. ``"worker 2"``).
    """
    try:
        header = await asyncio.wait_for(reader.readexactly(_LENGTH.size), timeout)
        (length,) = _LENGTH.unpack(header)
        if length > MAX_CONTROL_FRAME:
            raise LaunchError(f"control frame from {who} exceeds limit: {length}")
        body = await asyncio.wait_for(reader.readexactly(length), timeout)
    except asyncio.TimeoutError as exc:
        raise LaunchError(f"timed out waiting for a control message from {who}") from exc
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise LaunchError(f"control connection to {who} closed unexpectedly") from exc
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LaunchError(f"malformed control message from {who}: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise LaunchError(f"control message from {who} lacks a type")
    return message


async def expect(
    reader: asyncio.StreamReader,
    kind: str,
    timeout: Optional[float] = None,
    who: str = "peer",
) -> dict[str, Any]:
    """Read one message and require its ``type`` to be *kind*.

    A worker that hits an exception mid-handshake reports it as an ``error``
    message; surfacing its traceback here beats a generic phase timeout.
    """
    message = await read_json(reader, timeout=timeout, who=who)
    if message["type"] == "error":
        detail = message.get("traceback") or message.get("error", "unknown error")
        raise LaunchError(f"{who} failed: {detail}")
    if message["type"] != kind:
        raise LaunchError(
            f"expected a {kind!r} message from {who}, got {message['type']!r}"
        )
    return message


async def connect_with_retry(
    host: str, port: int, timeout: float
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a connection, retrying with linear backoff (50 ms steps) until *timeout*."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    attempt = 0
    while True:
        try:
            return await asyncio.open_connection(host, port)
        except OSError as exc:
            attempt += 1
            delay = 0.05 * attempt
            if loop.time() + delay >= deadline:
                raise LaunchError(
                    f"could not reach the supervisor at {host}:{port} "
                    f"within {timeout} s: {exc}"
                ) from exc
            await asyncio.sleep(delay)


__all__ = [
    "MAX_CONTROL_FRAME",
    "connect_with_retry",
    "expect",
    "read_json",
    "send_json",
]
