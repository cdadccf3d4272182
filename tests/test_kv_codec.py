"""Differential tests: the key-value payload's layout codec against the generic one.

``repro.kvstore.commands`` writes and reads ``[op, key, value]`` by its byte
layout.  The reference here is what it replaced — ``net.wire.encode`` one
way; ``net.wire.decode``, a check of the three field types and a check of
``op`` the other — and every property says the same thing: same bytes out,
and for any input either the same operation or ``CodecError`` from both.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kvstore.commands import (
    DELETE,
    GET,
    PUT,
    KvOp,
    decode_op,
    encode_delete,
    encode_get,
    encode_put,
    read_op,
)
from repro.net.wire import decode, encode

_OPS = (PUT, GET, DELETE)

_keys = st.text(max_size=40)
_values = st.binary(max_size=200)


def reference_read(payload) -> tuple[str, str, bytes]:
    """``(op, key, value)`` by the generic route, with the field checks the
    generic ``decode_op`` made."""
    fields = decode(payload)
    if (
        not isinstance(fields, list)
        or len(fields) != 3
        or not isinstance(fields[0], str)
        or not isinstance(fields[1], str)
        or not isinstance(fields[2], (bytes, bytearray))
    ):
        raise CodecError(f"malformed key-value payload: {fields!r}")
    op, key, value = fields
    if op not in _OPS:
        raise CodecError(f"unknown key-value operation {op!r}")
    return op, key, bytes(value)


def outcome(reader, payload):
    """What *reader* makes of *payload*: its result, or ``CodecError`` — any
    other exception propagates and fails the test."""
    try:
        return reader(payload)
    except CodecError:
        return CodecError


def assert_same_outcome(payload) -> None:
    expected = outcome(reference_read, payload)
    assert outcome(read_op, payload) == expected
    decoded = outcome(decode_op, payload)
    if expected is CodecError:
        assert decoded is CodecError
    else:
        op, key, value = expected
        assert decoded == KvOp(op, key, value if op == PUT else None)


def valid_payloads() -> list[bytes]:
    return [
        encode_put("key-17", b"\x00value\xff"),
        encode_put("", b""),
        encode_put("ключ-𝄞", bytes(range(256))),
        encode_get("key-17"),
        encode_delete("é"),
        encode(["get", "k", b"a get may carry a value; it is ignored"]),
    ]


# -- (a) same bytes -----------------------------------------------------------


class TestSameBytes:
    @given(key=_keys, value=_values)
    @example(key="", value=b"")
    @example(key="𝄞🎉\U0010ffff", value=b"\x00")
    @example(key="k" * 1000, value=bytes(64 * 1024))
    def test_encoders_write_the_generic_encoders_bytes(self, key, value):
        assert encode_put(key, value) == encode([PUT, key, value])
        assert encode_put(key, bytearray(value)) == encode([PUT, key, value])
        assert encode_get(key) == encode([GET, key, b""])
        assert encode_delete(key) == encode([DELETE, key, b""])

    def test_results_are_bytes(self):
        for payload in (encode_put("k", bytearray(b"v")), encode_get("k"), encode_delete("k")):
            assert type(payload) is bytes

    def test_lone_surrogate_key_fails_as_the_generic_encoder_does(self):
        with pytest.raises(UnicodeEncodeError):
            encode(["put", "\ud800", b""])
        with pytest.raises(UnicodeEncodeError):
            encode_put("\ud800", b"")


# -- (b) round trips ----------------------------------------------------------


class TestRoundTrip:
    @given(key=_keys, value=_values)
    @example(key="k" * 1000, value=bytes(64 * 1024))
    def test_put(self, key, value):
        assert decode_op(encode_put(key, value)) == KvOp(PUT, key, value)
        assert read_op(encode_put(key, value)) == (PUT, key, value)

    @given(key=_keys)
    def test_get_and_delete_carry_no_value(self, key):
        for op, payload in ((GET, encode_get(key)), (DELETE, encode_delete(key))):
            decoded = decode_op(payload)
            assert decoded == KvOp(op, key) and decoded.value is None

    # -- (e) any bytes-like payload -------------------------------------------

    @given(key=_keys, value=_values)
    def test_bytearray_and_memoryview_decode_like_bytes(self, key, value):
        payload = encode_put(key, value)
        for view in (bytearray(payload), memoryview(payload), memoryview(bytearray(payload))):
            assert decode_op(view) == KvOp(PUT, key, value)
            assert type(decode_op(view).value) is bytes


# -- (c) same accept set ------------------------------------------------------


class TestSameAcceptSet:
    @pytest.mark.parametrize("payload", valid_payloads())
    def test_every_truncation(self, payload):
        assert_same_outcome(payload)
        for cut in range(len(payload)):
            assert outcome(read_op, payload[:cut]) is CodecError
            assert_same_outcome(payload[:cut])

    @pytest.mark.parametrize("payload", valid_payloads()[:-1] + [encode_put("key", b"val")])
    def test_every_single_byte_corruption(self, payload):
        survivors = 0
        for at in range(len(payload)):
            for byte in range(256):
                corrupted = payload[:at] + bytes([byte]) + payload[at + 1 :]
                assert_same_outcome(corrupted)
                survivors += outcome(read_op, corrupted) is not CodecError
        # Key and value bytes may change freely; the layout's bytes may not.
        assert len(payload) <= survivors < 256 * len(payload)

    @given(
        payload=st.sampled_from(valid_payloads()),
        edits=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 255)), min_size=2, max_size=6
        ),
    )
    @settings(max_examples=400)
    def test_multi_byte_corruptions(self, payload, edits):
        corrupted = bytearray(payload)
        for at, byte in edits:
            corrupted[at % len(corrupted)] = byte
        assert_same_outcome(bytes(corrupted))

    @given(
        payload=st.sampled_from(valid_payloads()),
        extra=st.binary(max_size=8),
        at=st.integers(0, 10_000),
    )
    def test_insertions_and_deletions(self, payload, extra, at):
        at %= len(payload)
        assert_same_outcome(payload[:at] + extra + payload[at:])
        assert_same_outcome(payload[:at] + payload[at + 1 + len(extra) :])

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        assert_same_outcome(data)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=8) | st.binary(max_size=8)
            | st.sampled_from(_OPS),
            lambda inner: st.lists(inner, max_size=4),
            max_leaves=8,
        )
    )
    def test_other_well_formed_wire_values(self, value):
        assert_same_outcome(encode(value))


# -- (d) near misses ----------------------------------------------------------


def _tagged(tag: bytes, raw: bytes) -> bytes:
    return tag + struct.pack(">I", len(raw)) + raw


def _payload(*parts: bytes, count: int = 3) -> bytes:
    return b"L" + struct.pack(">I", count) + b"".join(parts)


_OP, _KEY, _VALUE = _tagged(b"S", b"put"), _tagged(b"S", b"key"), _tagged(b"B", b"value")

_NEAR_MISSES = {
    "trailing byte": _payload(_OP, _KEY, _VALUE) + b"\x00",
    "trailing value": _payload(_OP, _KEY, _VALUE) + b"N",
    "list of 2": _payload(_OP, _KEY, count=2),
    "list of 2, three items": _payload(_OP, _KEY, _VALUE, count=2),
    "list of 4": _payload(_OP, _KEY, _VALUE, _VALUE, count=4),
    "list of 4, three items": _payload(_OP, _KEY, _VALUE, count=4),
    "B-tagged op": _payload(_tagged(b"B", b"put"), _KEY, _VALUE),
    "B-tagged key": _payload(_OP, _tagged(b"B", b"key"), _VALUE),
    "S-tagged value": _payload(_OP, _KEY, _tagged(b"S", b"value")),
    "None value": _payload(_OP, _KEY, b"N"),
    "unknown op of length 3": _payload(_tagged(b"S", b"pot"), _KEY, _VALUE),
    "unknown op of length 6": _payload(_tagged(b"S", b"remove"), _KEY, _VALUE),
    "upper-case op": _payload(_tagged(b"S", b"PUT"), _KEY, _VALUE),
    "op with a longer length": _payload(_tagged(b"S", b"puts"), _KEY, _VALUE),
    "empty op": _payload(_tagged(b"S", b""), _KEY, _VALUE),
    "key length past the end": _payload(_OP, b"S" + struct.pack(">I", 200) + b"key", _VALUE),
    "key length swallows the value": _payload(
        _OP, b"S" + struct.pack(">I", 3 + len(_VALUE)) + b"key", _VALUE
    ),
    "value length one short": _payload(_OP, _KEY, b"B" + struct.pack(">I", 4) + b"value"),
    "value length one long": _payload(_OP, _KEY, b"B" + struct.pack(">I", 6) + b"value"),
    "overlong utf-8 key": _payload(_OP, _tagged(b"S", b"\xc0\xaf"), _VALUE),
    "surrogate utf-8 key": _payload(_OP, _tagged(b"S", b"\xed\xa0\x80"), _VALUE),
    "truncated utf-8 key": _payload(_OP, _tagged(b"S", b"\xe2\x82"), _VALUE),
    "key length 0xFFFFFFFF": _payload(_OP, b"S\xff\xff\xff\xffkey", _VALUE),
    "value length 0xFFFFFFFF": _payload(_OP, _KEY, b"B\xff\xff\xff\xffvalue"),
    "list count 0xFFFFFFFF": _payload(_OP, _KEY, _VALUE, count=0xFFFFFFFF),
    "empty": b"",
    "a head and nothing else": _payload(_OP, b"S"),
    "a map": encode({"put": "key"}),
    "a string": encode("put"),
}


class TestNearMisses:
    def test_the_builders_make_the_real_payload(self):
        assert _payload(_OP, _KEY, _VALUE) == encode_put("key", b"value")

    @pytest.mark.parametrize("name", sorted(_NEAR_MISSES))
    def test_rejected_with_codec_error(self, name):
        payload = _NEAR_MISSES[name]
        with pytest.raises(CodecError):
            read_op(payload)
        with pytest.raises(CodecError):
            decode_op(payload)
        with pytest.raises(CodecError):
            reference_read(payload)
