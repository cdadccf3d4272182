"""Tests for the state machine implementations."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kvstore.commands import (
    KvOp,
    decode_op,
    encode_delete,
    encode_get,
    encode_put,
    random_update,
)
from repro.kvstore.kv import KVStateMachine
from repro.statemachine import AppendLogStateMachine, NullStateMachine
from repro.types import Command, CommandId


def cmd(payload: bytes, seq: int = 1) -> Command:
    return Command(CommandId("c", seq), payload)


class TestNullStateMachine:
    def test_counts_commands(self):
        machine = NullStateMachine()
        machine.apply(cmd(b"a"))
        machine.apply(cmd(b"b"))
        assert machine.applied_count == 2

    def test_snapshot_restore(self):
        machine = NullStateMachine()
        machine.apply(cmd(b"a"))
        other = NullStateMachine()
        other.restore(machine.snapshot())
        assert other.applied_count == 1


class TestAppendLogStateMachine:
    def test_history_and_output(self):
        machine = AppendLogStateMachine()
        assert machine.apply(cmd(b"one")) == 1
        assert machine.apply(cmd(b"two")) == 2
        assert machine.history == [b"one", b"two"]

    def test_snapshot_restore(self):
        machine = AppendLogStateMachine()
        machine.apply(cmd(b"one"))
        machine.apply(cmd(b"two"))
        other = AppendLogStateMachine()
        other.restore(machine.snapshot())
        assert other.history == [b"one", b"two"]


class TestKvCommands:
    def test_put_round_trip(self):
        op = decode_op(encode_put("user:1", b"alice"))
        assert op == KvOp("put", "user:1", b"alice")

    def test_get_round_trip(self):
        op = decode_op(encode_get("user:1"))
        assert op.op == "get" and op.key == "user:1" and op.value is None

    def test_delete_round_trip(self):
        op = decode_op(encode_delete("user:1"))
        assert op.op == "delete" and op.key == "user:1"

    def test_malformed_payload_rejected(self):
        with pytest.raises(CodecError):
            decode_op(b"\x00garbage")
        from repro.net.wire import encode

        with pytest.raises(CodecError):
            decode_op(encode(["unknownop", "k", b""]))
        with pytest.raises(CodecError):
            decode_op(encode(["put", "key-only"]))

    def test_random_update_is_a_valid_put(self):
        import random

        op = decode_op(random_update(random.Random(3), value_size=16))
        assert op.op == "put"
        assert len(op.value) == 16
        assert op.key.startswith("key-")

    @given(st.text(max_size=50), st.binary(max_size=200))
    def test_put_round_trip_property(self, key, value):
        op = decode_op(encode_put(key, value))
        assert op.key == key and op.value == value


class TestKVStateMachine:
    def test_put_get_delete_cycle(self):
        machine = KVStateMachine()
        assert machine.apply(cmd(encode_put("k", b"v1"), 1)) is None
        assert machine.apply(cmd(encode_get("k"), 2)) == b"v1"
        assert machine.apply(cmd(encode_put("k", b"v2"), 3)) == b"v1"
        assert machine.apply(cmd(encode_delete("k"), 4)) is True
        assert machine.apply(cmd(encode_get("k"), 5)) is None
        assert machine.apply(cmd(encode_delete("k"), 6)) is False
        assert machine.applied_count == 6

    def test_local_inspection_helpers(self):
        machine = KVStateMachine()
        machine.apply(cmd(encode_put("b", b"2"), 1))
        machine.apply(cmd(encode_put("a", b"1"), 2))
        assert machine.get("a") == b"1"
        assert machine.keys() == ["a", "b"]
        assert len(machine) == 2

    def test_snapshot_restore_round_trip(self):
        machine = KVStateMachine()
        for i in range(20):
            machine.apply(cmd(encode_put(f"key-{i}", bytes([i])), i))
        other = KVStateMachine()
        other.restore(machine.snapshot())
        assert other.keys() == machine.keys()
        assert other.get("key-7") == bytes([7])
        assert other.applied_count == machine.applied_count

    def test_determinism_across_replicas(self):
        # Two replicas applying the same command sequence reach the same state.
        commands = [cmd(encode_put(f"k{i % 5}", bytes([i])), i) for i in range(50)]
        a, b = KVStateMachine(), KVStateMachine()
        for command in commands:
            a.apply(command)
            b.apply(command)
        assert a.snapshot() == b.snapshot()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "delete"]),
                st.integers(min_value=0, max_value=5),
                st.binary(max_size=8),
            ),
            max_size=60,
        )
    )
    def test_matches_a_plain_dict_model(self, operations):
        machine = KVStateMachine()
        model: dict[str, bytes] = {}
        for seq, (op, key_index, value) in enumerate(operations):
            key = f"key-{key_index}"
            if op == "put":
                expected = model.get(key)
                model[key] = value
                payload = encode_put(key, value)
            elif op == "get":
                expected = model.get(key)
                payload = encode_get(key)
            else:
                expected = key in model
                model.pop(key, None)
                payload = encode_delete(key)
            assert machine.apply(cmd(payload, seq)) == expected
        assert sorted(model) == machine.keys()
