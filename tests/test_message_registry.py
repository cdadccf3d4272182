"""Tests for the message registry and envelope round-trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, make_dataclass

import pytest

from repro.core.messages import ClockTime, CommitRecord, Prepare, PrepareOk, PrepareRecord
from repro.errors import CodecError
from repro.net.message import MessageRegistry, global_registry
from repro.net.wire import encode
from repro.protocols.multipaxos import CommitSlot, Forward, Phase2a, Phase2b
from repro.protocols.mencius import MenciusAck, MenciusCommit, SkipAnnounce, Suggest
from repro.types import Command, CommandId, Timestamp
from tests.wire_reference import library_classes


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

        def same():
            @dataclass(frozen=True)
            class Same:
                x: int

            return Same

        registry.register(same())
        with pytest.raises(CodecError, match="'Same' already registered"):
            registry.register(same())

    def test_non_dataclass_rejected(self):
        registry = MessageRegistry()
        with pytest.raises(CodecError):
            registry.register(int)  # type: ignore[arg-type]

    def test_bytes_off_the_layout_are_refused(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Record:
            x: int = 0

        registry.register(Record)
        data = registry.encode(Record(5))
        assert data == b"O\x00\x00" + (5).to_bytes(8, "big")
        assert registry.decode(data) == Record(5)
        # One wire spelling per message: its fields by position, no names.
        # A field cut short, bytes after the last one, another type id, or
        # the named layout of an older wire are all a CodecError.
        for crafted in (data[:-1], data + b"N", b"O\x00\x01" + data[3:], b"O" + encode("Record") + encode({"x": 5})):
            with pytest.raises(CodecError):
                registry.decode(crafted)

    def test_a_class_has_one_name(self):
        registry = MessageRegistry()

        @dataclass(frozen=True)
        class Ping:
            nonce: int

        registry.register(Ping)
        registry.register(Ping)  # again: nothing happens
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

        registry.register(B)
        registry.register(A)
        assert list(registry.names()) == ["B", "A"]
        assert not registry.is_registered(int)


_TABLE_PROBE = """
import importlib, json, sys
for module in sys.argv[1:]:
    importlib.import_module(module)
from repro.net.message import global_registry
print(json.dumps({"table": global_registry.table(), "digest": global_registry.digest().hex()}))
"""

_PROTOCOL_MODULES = [
    "repro.core.reconfig",
    "repro.consensus.single_paxos",
    "repro.protocols.mencius",
    "repro.protocols.multipaxos",
    "repro.protocols.records",
    "repro.core.messages",
    "repro.net.message",
]


# A process that imports only the TCP transport and builds one Clock-RSM
# server on it (through the lazy package namespaces): it never imports a
# baseline protocol, yet its table must be the whole one.
_TCP_SERVER_PROBE = """
import json
import repro.net.tcp

spec = repro.config.ClusterSpec.from_sites(["CA", "VA", "IR"])
repro.runtime.server.ReplicaServer(
    "clock-rsm", 0, spec, repro.statemachine.NullStateMachine(),
    transport=repro.net.tcp.TcpTransport(0, "127.0.0.1:0", {}),
)
registry = repro.net.message.global_registry
print(json.dumps({"table": registry.table(), "digest": registry.digest().hex()}))
"""


def _probe(script: str, *args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout
    return json.loads(out)


class TestTypeIds:
    def test_another_import_order_gives_the_same_ids_and_digest(self):
        # Type ids come from the sorted table, never from import order: a
        # process importing the protocol modules the other way round agrees.
        forward = _probe(_TABLE_PROBE, *_PROTOCOL_MODULES)
        backward = _probe(_TABLE_PROBE, *_PROTOCOL_MODULES[::-1])
        assert forward == backward
        assert forward == {"table": global_registry.table(), "digest": global_registry.digest().hex()}
        assert [line.split()[0] for line in forward["table"]] == [str(i) for i in range(len(forward["table"]))]

    def test_a_clock_rsm_server_on_tcp_speaks_the_whole_table(self):
        # The global registry imports every message-defining module on first
        # use, so a process that loaded one protocol has the table (type ids
        # and hello digest) of a process that loaded them all.
        everything = _probe(_TABLE_PROBE, *_PROTOCOL_MODULES)
        assert _probe(_TCP_SERVER_PROBE) == everything
        assert len(everything["table"]) == len(library_classes())

    def test_the_digest_covers_every_field_form(self):
        def digest_of(name, form):
            registry = MessageRegistry()
            registry.register(make_dataclass("Same", [(name, form)], frozen=True))
            return registry.digest()

        assert digest_of("x", int) == digest_of("x", int)
        assert len({digest_of("x", int), digest_of("x", str), digest_of("y", int)}) == 3
