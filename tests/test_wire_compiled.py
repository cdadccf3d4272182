"""Differential tests: the registry's compiled plans against the hook route.

``MessageRegistry`` encodes and decodes registered dataclasses from per-class
plans.  The reference here is a plain ``WireEncoder``/``WireDecoder`` pair
driven by reflective hooks — ``dataclass_fields`` one way, ``_convert_fields``
and ``cls(**fields)`` the other — and every property says the same thing:
same bytes out, same values or the same ``CodecError`` in, for every
registered class and for input no plan matches.
"""

from __future__ import annotations

import dataclasses
import struct
import typing
from dataclasses import dataclass, field
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.consensus.single_paxos
import repro.core.messages
import repro.core.reconfig
import repro.protocols.mencius
import repro.protocols.multipaxos
import repro.protocols.records
import repro.runtime.messages
import repro.storage.checkpoint
import repro.types
from repro.core.messages import Prepare, PrepareOk, PrepareRecord, RetrieveReply, SuspendOk
from repro.errors import CodecError
from repro.net.message import MessageRegistry, _convert_fields, global_registry
from repro.net.wire import (
    MAX_DEPTH,
    ObjectPlan,
    WireDecoder,
    WireEncoder,
    dataclass_fields,
    encode,
)
from repro.protocols.mencius import Suggest
from repro.protocols.multipaxos import Phase2a
from repro.protocols.records import CommandBatch
from repro.types import Command, CommandId, Timestamp

_MODULES = (
    repro.types,
    repro.core.messages,
    repro.core.reconfig,
    repro.protocols.records,
    repro.protocols.mencius,
    repro.protocols.multipaxos,
    repro.consensus.single_paxos,
    repro.storage.checkpoint,
    repro.runtime.messages,
)

#: name -> class for everything the library registers globally.
CLASSES: dict[str, type] = {
    cls.__name__: cls
    for module in _MODULES
    for cls in vars(module).values()
    if isinstance(cls, type) and global_registry.is_registered(cls)
}


def reference_codec(classes: dict[str, type], max_depth: int = MAX_DEPTH):
    """The hook-driven encoder/decoder pair the plans must agree with."""

    def encode_hook(value: Any):
        cls = type(value)
        for name, known in classes.items():
            if known is cls:
                return name, dataclass_fields(value)
        raise CodecError(f"unregistered message type {cls.__name__}")

    def decode_hook(name: str, fields: dict):
        cls = classes.get(name)
        if cls is None:
            raise CodecError(f"unknown message type {name!r}")
        return cls(**_convert_fields(cls, fields))

    return (
        WireEncoder(object_hook=encode_hook, max_depth=max_depth),
        WireDecoder(object_hook=decode_hook, max_depth=max_depth),
    )


REF_ENCODER, REF_DECODER = reference_codec(CLASSES)


def outcome(fn, *args):
    """``("ok", repr)`` or ``("error",)``; anything but ``CodecError`` escapes.

    Values are compared by ``repr``: it tells tuples from lists and ints from
    bools, and two NaNs a corruption produced still compare equal.
    """
    try:
        return ("ok", repr(fn(*args)))
    except CodecError:
        return ("error",)


def assert_decodes_like_reference(data: bytes, registry=global_registry, reference=REF_DECODER):
    assert outcome(registry.decode, data) == outcome(reference.decode, data), data


# ---------------------------------------------------------------------------
# Instances of every registered class, from its type hints
# ---------------------------------------------------------------------------

def _containers(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    )


_plain = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(allow_nan=False),
        st.text(max_size=6),
        st.binary(max_size=8),
    ),
    _containers,
    max_leaves=6,
)

# Mostly the small ints protocols send; sometimes one beyond int64 (BIGINT).
_ints = st.one_of(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=-(2**70), max_value=2**70),
)


def _for_hint(hint: Any) -> st.SearchStrategy:
    if hint is int:
        return _ints
    if hint is str:
        return st.text(max_size=6)
    if hint is bytes:
        return st.binary(max_size=8)
    if hint is Any:
        return _plain
    if typing.get_origin(hint) is typing.Union:
        return st.one_of([_for_hint(arg) for arg in typing.get_args(hint)])
    if typing.get_origin(hint) is tuple:
        item, ellipsis = typing.get_args(hint)
        assert ellipsis is Ellipsis
        # CommandBatch refuses to be empty; every other tuple field may be.
        floor = 1 if item is Command else 0
        return st.lists(_for_hint(item), min_size=floor, max_size=3).map(tuple)
    assert dataclasses.is_dataclass(hint), hint
    return instances_of(hint)


def instances_of(cls: type) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{f.name: _for_hint(hints[f.name]) for f in dataclasses.fields(cls)})


any_message = st.one_of([instances_of(cls) for cls in CLASSES.values()])

#: Messages on their own and nested in the containers frames put them in.
any_value = st.one_of(
    any_message,
    st.lists(any_message, max_size=3),
    st.dictionaries(st.text(max_size=4), st.one_of(any_message, _plain), max_size=3),
    st.fixed_dictionaries({"src": _ints, "dst": _ints, "message": any_message}),
)


def _command(seqno: int = 1) -> Command:
    return Command(CommandId("client", seqno), b"payload-%d" % seqno, created_at=7)


#: One fixed instance per shape the protocols put on the wire.
SAMPLES = [
    Prepare(CommandBatch((_command(1), _command(2))), Timestamp(5, 1), epoch=2),
    Prepare(_command(), Timestamp(5, 1)),
    PrepareOk(Timestamp(5, 1), 99),
    SuspendOk(3, (PrepareRecord(_command(), Timestamp(9, 0)),)),
    SuspendOk(3, ()),
    RetrieveReply((PrepareRecord(_command(), Timestamp(9, 0)),), Timestamp(1, 0), Timestamp(9, 9)),
    Suggest(12, _command(), 17),
    Phase2a(7, CommandBatch((_command(),))),
    {"src": 0, "dst": 1, "message": PrepareOk(Timestamp(2**70, 1), -1)},
    [Timestamp(1, 2), {"k": CommandId("c", 3)}],
]


def _assert_declared_tuples_are_tuples(value: Any) -> None:
    if isinstance(value, (list, tuple)):
        for item in value:
            _assert_declared_tuples_are_tuples(item)
    elif isinstance(value, dict):
        for item in value.values():
            _assert_declared_tuples_are_tuples(item)
    elif dataclasses.is_dataclass(value):
        hints = typing.get_type_hints(type(value))
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            if typing.get_origin(hints[f.name]) is tuple:
                assert type(item) is tuple, (type(value).__name__, f.name)
            _assert_declared_tuples_are_tuples(item)


class TestCoverage:
    def test_every_globally_registered_class_is_generated(self):
        assert set(CLASSES) == set(global_registry.names())

    @pytest.mark.parametrize("cls", CLASSES.values(), ids=CLASSES.keys())
    def test_every_library_class_gets_a_plan(self, cls):
        plan = ObjectPlan.compile(cls, cls.__name__)
        assert plan is not None and plan.cls is cls
        assert [name for name, _, _ in plan.fields] == [f.name for f in dataclasses.fields(cls)]


# ---------------------------------------------------------------------------
# (a) byte identity   (b) round trip
# ---------------------------------------------------------------------------


class TestByteIdentity:
    @given(any_value)
    def test_encode_matches_reference(self, value):
        expected = REF_ENCODER.encode(value)
        assert global_registry.encode(value) == expected
        buf = bytearray(b"\x00\x00\x00\x00")
        assert global_registry.encode_into(buf, value) == len(expected)
        assert bytes(buf) == b"\x00\x00\x00\x00" + expected

    @given(st.lists(any_value, max_size=4))
    def test_encode_many_matches_reference(self, values):
        expected = REF_ENCODER.encode_many(values)
        assert global_registry.encode_many(values) == expected
        buf = bytearray(b"head")
        assert global_registry.encode_many_into(buf, iter(values)) == len(expected)
        assert bytes(buf) == b"head" + expected

    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_samples_match_reference(self, value):
        assert global_registry.encode(value) == REF_ENCODER.encode(value)


class TestRoundTrip:
    @given(any_value)
    def test_round_trip_equality_and_tuple_fields(self, value):
        data = global_registry.encode(value)
        decoded = global_registry.decode(data)
        assert decoded == REF_DECODER.decode(data)
        assert repr(decoded) == repr(REF_DECODER.decode(data))
        _assert_declared_tuples_are_tuples(decoded)
        if not isinstance(value, list):  # top-level sequences decode as lists
            assert decoded == value

    @given(st.lists(any_message, max_size=4))
    def test_stream_round_trip(self, values):
        assert global_registry.decode_many(global_registry.encode_many(values)) == values

    @given(any_message)
    def test_any_bytes_like_is_accepted(self, value):
        data = global_registry.encode(value)
        framed = b"\xff" * 4 + data
        assert global_registry.decode(bytearray(data)) == value
        assert global_registry.decode(memoryview(framed)[4:]) == value
        assert global_registry.decode_many(memoryview(framed)[4:]) == [value]


# ---------------------------------------------------------------------------
# (c) malformed input: same verdict as the reference, CodecError only
# ---------------------------------------------------------------------------

# What a flipped byte most plausibly becomes: its neighbours, the extremes,
# and every tag of the grammar (turning a length byte into structure).
_TARGETED = (0x00, 0xFF) + tuple(b"NTFIJDSBLMO")


class TestMalformedInputParity:
    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_every_truncation_and_targeted_corruption_of_samples(self, value):
        data = global_registry.encode(value)
        for cut in range(len(data)):
            assert_decodes_like_reference(data[:cut])
        for pos in range(len(data)):
            original = data[pos]
            for byte in {(original + 1) % 256, (original - 1) % 256, *_TARGETED}:
                if byte != original:
                    assert_decodes_like_reference(data[:pos] + bytes((byte,)) + data[pos + 1 :])

    @settings(max_examples=60, deadline=None)
    @given(any_value, st.integers(min_value=1, max_value=255))
    def test_every_truncation_and_position_of_generated_values(self, value, delta):
        data = global_registry.encode(value)
        for cut in range(len(data)):
            assert_decodes_like_reference(data[:cut])
        for pos in range(len(data)):
            corrupted = bytearray(data)
            corrupted[pos] = (corrupted[pos] + delta) % 256
            assert_decodes_like_reference(bytes(corrupted))

    @given(st.lists(any_message, min_size=1, max_size=3), st.integers(min_value=0), st.integers(1, 255))
    def test_corrupted_streams(self, values, index, delta):
        data = bytearray(global_registry.encode_many(values))
        pos = index % len(data)
        data[pos] = (data[pos] + delta) % 256
        assert outcome(global_registry.decode_many, bytes(data)) == outcome(
            REF_DECODER.decode_many, bytes(data)
        )


# ---------------------------------------------------------------------------
# (d) layouts no plan matches take the hook route
# ---------------------------------------------------------------------------


def _obj(name: Any, fields: Any) -> bytes:
    """An OBJ with arbitrary (even ill-typed) name and field-map children."""
    return b"O" + encode(name) + REF_ENCODER.encode(fields)


def _str(text: str) -> bytes:
    return encode(text)


_TS = Timestamp(5, 1)

FALLBACK_LAYOUTS = {
    "extra unknown field last": _obj(
        "PrepareOk", {"ts": _TS, "clock_micros": 9, "epoch": 1, "future": True}
    ),
    "extra unknown field first": _obj(
        "PrepareOk", {"future": [1], "ts": _TS, "clock_micros": 9, "epoch": 1}
    ),
    "unknown field in a known one's place": _obj(
        "PrepareOk", {"ts": _TS, "future": 1, "epoch": 1}
    ),
    "fields reordered": _obj("PrepareOk", {"epoch": 1, "clock_micros": 9, "ts": _TS}),
    "last two fields swapped": _obj("PrepareOk", {"ts": _TS, "epoch": 1, "clock_micros": 9}),
    "defaulted field omitted": _obj("PrepareOk", {"ts": _TS, "clock_micros": 9}),
    "required field omitted": _obj("PrepareOk", {"ts": _TS, "epoch": 1}),
    "no fields at all": _obj("PrepareOk", {}),
    "type name not registered": _obj("NoSuchMessage", {"ts": _TS}),
    "type name is not a STR": _obj(5, {"ts": _TS}),
    "type name is BYTES": _obj(b"PrepareOk", {"ts": _TS, "clock_micros": 9, "epoch": 1}),
    "type name is invalid utf-8": b"OS" + struct.pack(">I", 2) + b"\xff\xfe" + encode({}),
    "field map is a LIST": _obj("PrepareOk", [_TS, 9, 1]),
    "field map is missing": b"O" + _str("PrepareOk"),
    "key is an int": _obj("PrepareOk", {"ts": _TS, 7: 9, "epoch": 1}),
    "key is unhashable": (
        b"O" + _str("PrepareOk") + b"M" + struct.pack(">I", 3)
        + _str("ts") + REF_ENCODER.encode(_TS) + encode([1]) + encode(9)
        + _str("epoch") + encode(1)
    ),
    "duplicate key": (
        b"O" + _str("PrepareOk") + b"M" + struct.pack(">I", 3)
        + _str("ts") + REF_ENCODER.encode(_TS)
        + _str("clock_micros") + encode(9) + _str("clock_micros") + encode(10)
    ),
    "field count larger than the MAP": (
        b"O" + _str("PrepareOk") + b"M" + struct.pack(">I", 3)
        + _str("ts") + REF_ENCODER.encode(_TS) + _str("clock_micros") + encode(9)
    ),
    "list where a tuple is declared": _obj("SuspendOk", {"epoch": 1, "records": []}),
    "scalar where a tuple is declared": _obj("SuspendOk", {"epoch": 1, "records": 5}),
    "empty batch refused by __post_init__": _obj("CommandBatch", {"commands": []}),
    "ill-typed fields still build": _obj("PrepareOk", {"ts": None, "clock_micros": "x", "epoch": []}),
    "fallback object inside a planned one": (
        b"O" + _str("PrepareOk") + b"M" + struct.pack(">I", 3)
        + _str("ts") + _obj("Timestamp", {"replica": 1, "micros": 5})
        + _str("clock_micros") + encode(9) + _str("epoch") + encode(1)
    ),
    "planned object inside a fallback one": _obj(
        "Prepare", {"ts": _TS, "command": _command(), "epoch": 0}
    ),
}


class TestFallbackLayouts:
    @pytest.mark.parametrize("data", FALLBACK_LAYOUTS.values(), ids=FALLBACK_LAYOUTS.keys())
    def test_decodes_or_fails_like_reference(self, data):
        assert_decodes_like_reference(data)
        # ... and wherever an OBJ can sit: in a list, as a map value, in a stream.
        assert_decodes_like_reference(b"L" + struct.pack(">I", 2) + data + encode(1))
        assert_decodes_like_reference(b"M" + struct.pack(">I", 1) + _str("k") + data)
        assert outcome(global_registry.decode_many, data + data) == outcome(
            REF_DECODER.decode_many, data + data
        )

    def test_the_layouts_cover_both_verdicts(self):
        verdicts = {name: outcome(REF_DECODER.decode, data)[0] for name, data in FALLBACK_LAYOUTS.items()}
        assert verdicts["fields reordered"] == "ok"
        assert verdicts["extra unknown field last"] == "ok"
        assert verdicts["defaulted field omitted"] == "ok"
        assert verdicts["fallback object inside a planned one"] == "ok"
        assert verdicts["type name not registered"] == "error"
        assert verdicts["type name is not a STR"] == "error"
        assert verdicts["required field omitted"] == "error"
        assert verdicts["empty batch refused by __post_init__"] == "error"

    def test_reordered_fields_decode_to_the_same_message(self):
        assert global_registry.decode(FALLBACK_LAYOUTS["fields reordered"]) == PrepareOk(_TS, 9, 1)

    def test_a_late_mismatch_does_not_reread_nested_objects(self):
        # Every level's *last* key is unknown, so each level leaves its plan
        # only after its nested object was read.  Starting such an object
        # over from its tag would build the innermost one 2**depth times.
        built = []

        @dataclass(frozen=True)
        class Node:
            child: Any
            mark: int = 0

            def __post_init__(self):
                built.append(self)

        registry = MessageRegistry()
        registry.register(Node)
        _, reference = reference_codec({"Node": Node})
        depth = 12
        data = encode(None)
        for level in range(depth):
            data = (
                b"O" + _str("Node") + b"M" + struct.pack(">I", 2)
                + _str("child") + data + _str("future") + encode(level)
            )
        decoded = registry.decode(data)
        assert len(built) == depth
        assert repr(decoded) == repr(reference.decode(data))


class TestClassesWithoutAPlan:
    """Constructors that ``cls(*values)`` would not call like ``cls(**fields)``."""

    def test_they_round_trip_on_the_hook_route(self):
        @dataclass(frozen=True)
        class Derived:
            x: int
            doubled: int = field(init=False, default=0)

            def __post_init__(self):
                object.__setattr__(self, "doubled", 2 * self.x)

        @dataclass(frozen=True)
        class KeywordOnly:
            x: int
            y: int = field(kw_only=True, default=4)

        @dataclass(frozen=True)
        class WithInitVar:
            x: int
            scale: dataclasses.InitVar[int] = 1
            y: int = 0

        @dataclass(init=False)
        class OwnInit:
            x: int
            y: int

            def __init__(self, y: int = 0, x: int = 0):
                self.x, self.y = x, y

        classes = {cls.__name__: cls for cls in (Derived, KeywordOnly, WithInitVar, OwnInit)}
        registry = MessageRegistry()
        for cls in classes.values():
            registry.register(cls)
            assert ObjectPlan.compile(cls, cls.__name__) is None
        ref_encoder, ref_decoder = reference_codec(classes)
        values = [Derived(3), KeywordOnly(1, y=2), WithInitVar(1, 5, 2), OwnInit(y=1, x=2)]
        data = registry.encode(values)
        assert data == ref_encoder.encode(values)
        # `Derived` sends a field its constructor refuses: both routes say so.
        assert outcome(registry.decode, data) == outcome(ref_decoder.decode, data) == ("error",)
        for value in values[1:]:
            data = registry.encode(value)
            assert registry.decode(data) == ref_decoder.decode(data) == value

    def test_a_class_without_fields_has_a_plan(self):
        @dataclass(frozen=True)
        class Ping:
            pass

        registry = MessageRegistry()
        registry.register(Ping)
        ref_encoder, ref_decoder = reference_codec({"Ping": Ping})
        assert registry.encode([Ping()]) == ref_encoder.encode([Ping()])
        assert registry.decode(registry.encode([Ping()])) == [Ping()]
        assert_decodes_like_reference(_obj("Ping", {"future": 1}), registry, ref_decoder)


# ---------------------------------------------------------------------------
# (e) the depth limit falls where the reference puts it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Leafless:
    pass


_DEPTH_CLASSES = {**CLASSES, "_Leafless": _Leafless}
_DEPTH_SHAPES = [
    Timestamp(1, 2),                                        # leaves only
    PrepareOk(Timestamp(1, 2), 3),                          # an object inside
    SuspendOk(1, ()),                                       # an empty list inside
    SuspendOk(1, (PrepareRecord(_command(), _TS),)),        # list -> object -> object
    Prepare(CommandBatch((_command(),)), _TS),
    {"message": Timestamp(1, 2)},
    _Leafless(),                                            # OBJ with an empty MAP
    Phase2a(7, _Leafless()),                                # ... as a planned field
    PrepareOk(Timestamp(2**70, 2), 3),                      # a BIGINT leaf at the edge
]


class TestDepthLimit:
    @pytest.mark.parametrize("shape", _DEPTH_SHAPES, ids=repr)
    def test_both_directions_agree_with_reference_around_the_limit(self, shape):
        registry = MessageRegistry()
        for name, cls in _DEPTH_CLASSES.items():
            registry.register(cls, name)
        ref_encoder, ref_decoder = reference_codec(_DEPTH_CLASSES)
        unlimited, _ = reference_codec(_DEPTH_CLASSES, max_depth=4 * MAX_DEPTH)
        verdicts = set()
        # Wrapped in ever more lists, the shape's innermost value crosses the
        # limit: ending exactly at it must work, one past it must not.
        for wraps in range(MAX_DEPTH - 12, MAX_DEPTH + 2):
            value = shape
            for _ in range(wraps):
                value = [value]
            encoded = outcome(registry.encode, value)
            assert encoded == outcome(ref_encoder.encode, value), wraps
            data = unlimited.encode(value)
            decoded = outcome(registry.decode, data)
            assert decoded == outcome(ref_decoder.decode, data), wraps
            verdicts.add((encoded[0], decoded[0]))
        assert ("ok", "ok") in verdicts and ("error", "error") in verdicts


# ---------------------------------------------------------------------------
# (f) late registration
# ---------------------------------------------------------------------------


class TestLateRegistration:
    def test_class_registered_after_first_use_round_trips(self):
        @dataclass(frozen=True)
        class Early:
            x: int

        @dataclass(frozen=True)
        class Late:
            items: tuple[Early, ...]
            note: str = ""

        registry = MessageRegistry()
        registry.register(Early)
        data = registry.encode(Early(1))
        assert registry.decode(data) == Early(1)
        with pytest.raises(CodecError):
            registry.encode(Late((Early(1),)))

        registry.register(Late)
        ref_encoder, _ = reference_codec({"Early": Early, "Late": Late})
        value = Late((Early(1), Early(2)), "n")
        data = registry.encode(value)
        assert data == ref_encoder.encode(value)
        decoded = registry.decode(data)
        assert decoded == value and type(decoded.items) is tuple
        buf = bytearray()
        registry.encode_many_into(buf, [value, Early(3)])
        assert registry.decode_many(buf) == [value, Early(3)]

    def test_second_name_for_a_class_decodes_under_both(self):
        @dataclass(frozen=True)
        class Thing:
            x: int

        registry = MessageRegistry()
        registry.register(Thing, "old")
        old = registry.encode(Thing(1))
        registry.register(Thing, "new")
        new = registry.encode(Thing(1))
        assert old != new
        assert registry.decode(old) == registry.decode(new) == Thing(1)
