"""Tests for the message registry and envelope round-trips."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.messages import ClockTime, CommitRecord, Prepare, PrepareOk, PrepareRecord
from repro.errors import CodecError
from repro.net.message import Envelope, MessageRegistry, global_registry
from repro.net.wire import encode
from repro.protocols.multipaxos import CommitSlot, Forward, Phase2a, Phase2b
from repro.protocols.mencius import MenciusAck, MenciusCommit, SkipAnnounce, Suggest
from repro.types import Command, CommandId, Timestamp


def _command(seq: int = 1, payload: bytes = b"payload") -> Command:
    return Command(CommandId("client-a", seq), payload, created_at=123)


class TestGlobalRegistryRoundTrips:
    @pytest.mark.parametrize(
        "message",
        [
            Timestamp(1234, 2),
            _command(),
            Prepare(_command(), Timestamp(55, 1), epoch=3),
            PrepareOk(Timestamp(55, 1), 99, epoch=3),
            ClockTime(1_000_000, epoch=1),
            PrepareRecord(_command(), Timestamp(55, 1)),
            CommitRecord(Timestamp(55, 1)),
            Forward(_command()),
            Phase2a(7, _command()),
            Phase2b(7),
            CommitSlot(7),
            Suggest(12, _command(), 17),
            MenciusAck(12, 17),
            MenciusCommit(12),
            SkipAnnounce(22),
        ],
    )
    def test_protocol_messages_round_trip(self, message):
        data = global_registry.encode(message)
        assert global_registry.decode(data) == message

    def test_nested_containers_of_messages(self):
        value = {"batch": [Prepare(_command(i), Timestamp(i, 0)) for i in range(5)]}
        decoded = global_registry.decode(global_registry.encode(value))
        assert decoded["batch"] == [Prepare(_command(i), Timestamp(i, 0)) for i in range(5)]

    def test_tuple_fields_survive_round_trip(self):
        from repro.core.messages import SuspendOk

        message = SuspendOk(2, (PrepareRecord(_command(), Timestamp(9, 0)),))
        decoded = global_registry.decode(global_registry.encode(message))
        assert decoded == message
        assert isinstance(decoded.records, tuple)


class TestCustomRegistry:
    def test_register_and_round_trip(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Ping:
            nonce: int

        registry.register(Ping)
        assert registry.decode(registry.encode(Ping(9))) == Ping(9)
        assert registry.is_registered(Ping)

    def test_unregistered_type_rejected_on_encode(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Unknown:
            x: int

        with pytest.raises(CodecError):
            registry.encode(Unknown(1))

    def test_unknown_name_rejected_on_decode(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Known:
            x: int

        registry.register(Known)
        data = registry.encode(Known(1))
        assert MessageRegistry().decode.__self__ is not registry  # sanity
        with pytest.raises(CodecError):
            MessageRegistry().decode(data)

    def test_conflicting_registration_rejected(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class A:
            x: int

        @dataclass(frozen=True)
        class B:
            x: int

        registry.register(A, name="same")
        with pytest.raises(CodecError):
            registry.register(B, name="same")

    def test_non_dataclass_rejected(self):
        registry = MessageRegistry()
        with pytest.raises(CodecError):
            registry.register(int)  # type: ignore[arg-type]

    def test_unknown_fields_are_refused(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Record:
            x: int = 0

        registry.register(Record, name="Record")
        data = registry.encode(Record(5))
        assert registry.decode(data) == Record(5)
        # One wire spelling per message: an extra field a future version
        # might add, or a defaulted one left out, is a CodecError.
        for fields in ({"x": 5, "future": True}, {"future": True, "x": 5}, {}):
            crafted = b"O" + encode("Record") + encode(fields)
            with pytest.raises(CodecError, match="not in its registered layout"):
                registry.decode(crafted)

    def test_a_class_has_one_name(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Ping:
            nonce: int

        registry.register(Ping)
        registry.register(Ping)  # again under the same name: nothing happens
        with pytest.raises(CodecError, match="already registered as 'Ping'"):
            registry.register(Ping, name="Pong")
        assert list(registry.names()) == ["Ping"]
        assert registry.is_registered(Ping)

    def test_names_keep_registration_order(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class A:
            x: int

        @dataclass(frozen=True)
        class B:
            x: int

        registry.register(B, name="second")
        registry.register(A, name="first")
        assert list(registry.names()) == ["second", "first"]
        assert not registry.is_registered(int)


class TestEnvelope:
    def test_with_size(self):
        envelope = Envelope(0, 1, Phase2b(3))
        assert envelope.size_hint == 0
        assert envelope.with_size(128).size_hint == 128
        assert envelope.with_size(128).message == Phase2b(3)
