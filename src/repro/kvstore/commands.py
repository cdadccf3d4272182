"""Key-value command encoding.

Commands are opaque byte payloads to the replication protocols; this module
defines the payload format for the key-value store: the
:mod:`~repro.net.wire` encoding of the list ``[op, key, value]`` where ``op``
is one of ``"put"``, ``"get"``, ``"delete"``.  The wire grammar gives that
shape exactly one byte layout (integers big-endian)::

    'L' u32(3)  'S' u32(len) op  'S'  u32(len) key-utf8  'B' u32(len) value
    |------------- head -------------|

so it is written and read by layout instead of through the generic codec:
one of three constant heads, two lengths, the key, and a value that must end
where the payload ends.  The bytes are ``net.wire.encode([op, key, value])``'s
and the reader accepts exactly what ``net.wire.decode`` plus a check of the
field types and of ``op`` accepts; all else is :class:`~repro.errors.CodecError`.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import CodecError
from ..net.wire import encode

PUT = "put"
GET = "get"
DELETE = "delete"

#: What ``KVStateMachine.apply`` returns for a payload that is not a key-value
#: operation; no operation outputs a ``str``.
REJECTED = "rejected: malformed key-value payload"

_U32 = struct.Struct(">I")
_VALUE = struct.Struct(">cI")  # 'B' u32(len)

# Cut from the generic encoder's output (less ``u32(0) 'B' u32(0)``), so the
# heads are its bytes; a layout is ``(op, head, offset of the key's first byte)``.
_HEADS = {op: encode([op, "", b""])[:-9] for op in (PUT, GET, DELETE)}
_LAYOUTS = tuple((op, head, len(head) + 4) for op, head in _HEADS.items())


@dataclass(frozen=True, slots=True)
class KvOp:
    """A decoded key-value operation."""

    op: str
    key: str
    value: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.op not in _HEADS:
            raise CodecError(f"unknown key-value operation {self.op!r}")


def _write_op(op: str, key: str, value: bytes = b"") -> bytes:
    raw = key.encode("utf-8")
    try:
        key_len, value_head = _U32.pack(len(raw)), _VALUE.pack(b"B", len(value))
    except struct.error as exc:
        raise CodecError(f"key or value exceeds the u32 length field: {exc}") from exc
    return b"".join((_HEADS[op], key_len, raw, value_head, value))


def read_op(payload: Any) -> tuple[str, str, bytes]:
    """``(op, key, value)`` of a bytes-like key-value payload; raises
    :class:`CodecError` unless it is laid out exactly as the module describes."""
    data = payload if type(payload) is bytes else bytes(memoryview(payload))
    for op, head, key_at in _LAYOUTS:
        if data.startswith(head):
            break
    else:
        raise CodecError("malformed key-value payload: no [put|get|delete, key, value] head")
    try:
        value_tag_at = key_at + _U32.unpack_from(data, key_at - 4)[0]
        tag, value_len = _VALUE.unpack_from(data, value_tag_at)
        if tag != b"B" or value_tag_at + 5 + value_len != len(data):
            raise CodecError("malformed key-value payload: value is not BYTES up to the end")
        return op, data[key_at:value_tag_at].decode("utf-8"), data[value_tag_at + 5 :]
    except (struct.error, UnicodeDecodeError) as exc:  # a length past the end; a bad key
        raise CodecError(f"malformed key-value payload: {exc}") from exc


def encode_put(key: str, value: bytes) -> bytes:
    """Payload for ``PUT key value``."""
    return _write_op(PUT, key, bytes(value))


def encode_get(key: str) -> bytes:
    """Payload for ``GET key`` (reads also go through the protocol, which is
    what gives Clock-RSM linearizable reads)."""
    return _write_op(GET, key)


def encode_delete(key: str) -> bytes:
    """Payload for ``DELETE key``."""
    return _write_op(DELETE, key)


def decode_op(payload: bytes) -> KvOp:
    """Decode a key-value payload; raises :class:`CodecError` if malformed."""
    op, key, value = read_op(payload)
    return KvOp(op, key, value if op == PUT else None)


def random_update(rng: random.Random, value_size: int = 64) -> bytes:
    """A PUT to one of 1000 keys, chosen uniformly, as the paper's clients issue."""
    key = f"key-{rng.randrange(1000)}"
    return encode_put(key, bytes(value_size))


__all__ = [
    "PUT",
    "GET",
    "DELETE",
    "REJECTED",
    "KvOp",
    "encode_put",
    "encode_get",
    "encode_delete",
    "decode_op",
    "read_op",
    "random_update",
]
