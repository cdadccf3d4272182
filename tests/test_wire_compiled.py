"""Differential tests: the registry's generated codecs against an independent reference.

``MessageRegistry`` encodes and decodes registered dataclasses only from
per-class plans, in one wire spelling per class.  The reference
(:mod:`tests.wire_reference`) is plain recursion over the grammar with the
same strict OBJ layout, sharing no code with the codec's loops or plans, and
every property says the same thing: same bytes out, same values or the same
``CodecError`` in, for every registered class and for malformed input.  Any
layout other than the plan's — unknown, reordered or omitted fields, an
unregistered type name — is refused, wherever the object sits.
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
import repro.types
from repro.core.messages import Prepare, PrepareOk, PrepareRecord, RetrieveReply, SuspendOk
from repro.errors import CodecError
from repro.net.message import MessageRegistry, global_registry
from repro.net.wire import MAX_DEPTH, ObjectPlan, encode
from repro.protocols.mencius import Suggest
from repro.protocols.multipaxos import Phase2a
from repro.protocols.records import CommandBatch
from repro.types import Command, CommandId, Timestamp
from tests.wire_reference import WireReference

_MODULES = (
    repro.types,
    repro.core.messages,
    repro.core.reconfig,
    repro.protocols.records,
    repro.protocols.mencius,
    repro.protocols.multipaxos,
    repro.consensus.single_paxos,
)

#: name -> class for everything the library registers globally.
CLASSES: dict[str, type] = {
    cls.__name__: cls
    for module in _MODULES
    for cls in vars(module).values()
    if isinstance(cls, type) and global_registry.is_registered(cls)
}


REFERENCE = WireReference(CLASSES)


def outcome(fn, *args):
    """``("ok", repr)`` or ``("error",)``; anything but ``CodecError`` escapes.

    Values are compared by ``repr``: it tells tuples from lists and ints from
    bools, and two NaNs a corruption produced still compare equal.
    """
    try:
        return ("ok", repr(fn(*args)))
    except CodecError:
        return ("error",)


def assert_decodes_like_reference(data: bytes, registry=global_registry, reference=REFERENCE):
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
        assert plan.cls is cls
        assert [name for name, _, _ in plan.fields] == [f.name for f in dataclasses.fields(cls)]


#: ``PrepareOk(Timestamp(5, 1), 9)`` spelled out by hand from the grammar.
_PREPARE_OK_BYTES = (
    b"OS\x00\x00\x00\x09PrepareOk" b"M\x00\x00\x00\x03"
    b"S\x00\x00\x00\x02ts" b"OS\x00\x00\x00\x09Timestamp" b"M\x00\x00\x00\x02"
    b"S\x00\x00\x00\x06micros" b"I\x00\x00\x00\x00\x00\x00\x00\x05"
    b"S\x00\x00\x00\x07replica" b"I\x00\x00\x00\x00\x00\x00\x00\x01"
    b"S\x00\x00\x00\x0cclock_micros" b"I\x00\x00\x00\x00\x00\x00\x00\x09"
    b"S\x00\x00\x00\x05epoch" b"I\x00\x00\x00\x00\x00\x00\x00\x00"
)  # fmt: skip


class TestReference:
    def test_the_reference_spells_the_grammar(self):
        value = PrepareOk(Timestamp(5, 1), 9)
        assert REFERENCE.encode(value) == _PREPARE_OK_BYTES
        assert REFERENCE.decode(_PREPARE_OK_BYTES) == value
        assert global_registry.encode(value) == _PREPARE_OK_BYTES
        assert global_registry.decode(_PREPARE_OK_BYTES) == value

    def test_the_reference_refuses_every_other_spelling(self):
        reordered = _obj("PrepareOk", {"clock_micros": 9, "ts": Timestamp(5, 1), "epoch": 0})
        with pytest.raises(CodecError, match="expected field 'ts'"):
            REFERENCE.decode(reordered)
        with pytest.raises(CodecError):
            REFERENCE.decode(_PREPARE_OK_BYTES[:-1])


# ---------------------------------------------------------------------------
# (a) byte identity   (b) round trip
# ---------------------------------------------------------------------------


class TestByteIdentity:
    @given(any_value)
    def test_encode_matches_reference(self, value):
        expected = REFERENCE.encode(value)
        assert global_registry.encode(value) == expected
        buf = bytearray(b"\x00\x00\x00\x00")
        assert global_registry.encode_into(buf, value) == len(expected)
        assert bytes(buf) == b"\x00\x00\x00\x00" + expected

    @given(st.lists(any_value, max_size=4))
    def test_encode_many_matches_reference(self, values):
        expected = REFERENCE.encode_many(values)
        assert global_registry.encode_many(values) == expected
        buf = bytearray(b"head")
        assert global_registry.encode_many_into(buf, iter(values)) == len(expected)
        assert bytes(buf) == b"head" + expected

    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_samples_match_reference(self, value):
        assert global_registry.encode(value) == REFERENCE.encode(value)


class TestRoundTrip:
    @given(any_value)
    def test_round_trip_equality_and_tuple_fields(self, value):
        data = global_registry.encode(value)
        decoded = global_registry.decode(data)
        assert decoded == REFERENCE.decode(data)
        assert repr(decoded) == repr(REFERENCE.decode(data))
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
            REFERENCE.decode_many, bytes(data)
        )


# ---------------------------------------------------------------------------
# (d) one wire spelling: every other layout is refused
# ---------------------------------------------------------------------------


def _obj(name: Any, fields: Any) -> bytes:
    """An OBJ with arbitrary (even ill-typed) name and field-map children."""
    return b"O" + encode(name) + REFERENCE.encode(fields)


def _str(text: str) -> bytes:
    return encode(text)


_TS = Timestamp(5, 1)

#: OBJ bytes not in the one layout the plan of their type name writes (or
#: with no plan at all).  Every one is a ``CodecError``, wherever it sits.
REFUSED_LAYOUTS = {
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
        + _str("ts") + REFERENCE.encode(_TS) + encode([1]) + encode(9)
        + _str("epoch") + encode(1)
    ),
    "duplicate key": (
        b"O" + _str("PrepareOk") + b"M" + struct.pack(">I", 3)
        + _str("ts") + REFERENCE.encode(_TS)
        + _str("clock_micros") + encode(9) + _str("clock_micros") + encode(10)
    ),
    "field count larger than the MAP": (
        b"O" + _str("PrepareOk") + b"M" + struct.pack(">I", 3)
        + _str("ts") + REFERENCE.encode(_TS) + _str("clock_micros") + encode(9)
    ),
    "reordered object inside a planned one": (
        b"O" + _str("PrepareOk") + b"M" + struct.pack(">I", 3)
        + _str("ts") + _obj("Timestamp", {"replica": 1, "micros": 5})
        + _str("clock_micros") + encode(9) + _str("epoch") + encode(1)
    ),
    "planned object inside a reordered one": _obj(
        "Prepare", {"ts": _TS, "command": _command(), "epoch": 0}
    ),
}


#: The plan's own layout with field values off their declaration: each such
#: field is read generically, and the constructor has the last word.
OFF_DECLARATION_LAYOUTS = {
    "list where a tuple is declared": _obj("SuspendOk", {"epoch": 1, "records": []}),
    "scalar where a tuple is declared": _obj("SuspendOk", {"epoch": 1, "records": 5}),
    "empty batch refused by __post_init__": _obj("CommandBatch", {"commands": []}),
    "ill-typed fields still build": _obj("PrepareOk", {"ts": None, "clock_micros": "x", "epoch": []}),
}


def _wrapped(data: bytes) -> list[bytes]:
    """*data* wherever an OBJ can sit: alone, in a list, as a map value."""
    return [
        data,
        b"L" + struct.pack(">I", 2) + data + encode(1),
        b"M" + struct.pack(">I", 1) + _str("k") + data,
    ]


class TestRefusedLayouts:
    @pytest.mark.parametrize("data", REFUSED_LAYOUTS.values(), ids=REFUSED_LAYOUTS.keys())
    def test_refused_wherever_it_sits(self, data):
        for wrapped in _wrapped(data):
            with pytest.raises(CodecError):
                global_registry.decode(wrapped)
            assert outcome(REFERENCE.decode, wrapped) == ("error",)
        stream = _PREPARE_OK_BYTES + data + _PREPARE_OK_BYTES
        with pytest.raises(CodecError):
            global_registry.decode_many(stream)
        assert outcome(REFERENCE.decode_many, stream) == ("error",)

    @pytest.mark.parametrize("data", OFF_DECLARATION_LAYOUTS.values(), ids=OFF_DECLARATION_LAYOUTS.keys())
    def test_off_declaration_values_decode_like_reference(self, data):
        for wrapped in _wrapped(data):
            assert_decodes_like_reference(wrapped)
        assert outcome(global_registry.decode_many, data + data) == outcome(
            REFERENCE.decode_many, data + data
        )

    def test_the_off_declaration_layouts_cover_both_verdicts(self):
        verdicts = {name: outcome(REFERENCE.decode, data)[0] for name, data in OFF_DECLARATION_LAYOUTS.items()}
        assert verdicts["ill-typed fields still build"] == "ok"
        assert verdicts["scalar where a tuple is declared"] == "ok"
        assert verdicts["empty batch refused by __post_init__"] == "error"

    @pytest.mark.parametrize(
        "layout, name, due",
        [
            ("fields reordered", "PrepareOk", "ts"),
            ("last two fields swapped", "PrepareOk", "clock_micros"),
            ("defaulted field omitted", "PrepareOk", "ts"),  # the field count is in the head
            ("extra unknown field last", "PrepareOk", "ts"),
            ("reordered object inside a planned one", "Timestamp", "micros"),
        ],
    )
    def test_the_refusal_names_the_field_due(self, layout, name, due):
        with pytest.raises(CodecError, match=f"'{name}' object not in its registered layout .* expected field '{due}'"):
            global_registry.decode(REFUSED_LAYOUTS[layout])

    def test_an_unregistered_type_name_is_refused(self):
        with pytest.raises(CodecError, match="no registered type name"):
            global_registry.decode(REFUSED_LAYOUTS["type name not registered"])

    def test_hostile_nesting_builds_at_most_depth_objects_and_raises(self):
        # Every level's *last* key is unknown: the innermost level is refused
        # after its child was read, and nothing is read twice or built.
        built = []

        @dataclass(frozen=True)
        class Node:
            child: Any
            mark: int = 0

            def __post_init__(self):
                built.append(self)

        registry = MessageRegistry()
        registry.register(Node)
        reference = WireReference({"Node": Node})
        depth = 12
        data = encode(None)
        for level in range(depth):
            data = (
                b"O" + _str("Node") + b"M" + struct.pack(">I", 2)
                + _str("child") + data + _str("future") + encode(level)
            )
        with pytest.raises(CodecError, match="expected field 'mark'"):
            registry.decode(data)
        assert len(built) <= depth
        assert outcome(reference.decode, data) == ("error",)


@dataclass(frozen=True)
class _Derived:
    x: int
    doubled: int = field(init=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "doubled", 2 * self.x)


@dataclass(frozen=True)
class _KeywordOnly:
    x: int
    y: int = field(kw_only=True, default=4)


@dataclass(frozen=True)
class _WithInitVar:
    x: int
    scale: dataclasses.InitVar[int] = 1
    y: int = 0


@dataclass(init=False)
class _OwnInit:
    x: int
    y: int

    def __init__(self, y: int = 0, x: int = 0):
        self.x, self.y = x, y


class TestClassesWithoutAPlan:
    """Constructors that ``cls(*values)`` would not call like ``cls(**fields)``."""

    @pytest.mark.parametrize(
        "cls, reason",
        [
            (_Derived, "field 'doubled' has init=False"),
            (_KeywordOnly, "'y' is keyword-only"),
            (_WithInitVar, "'scale' is an InitVar"),
            (_OwnInit, "its __init__ is hand-written"),
        ],
        ids=["init-false", "keyword-only", "initvar", "own-init"],
    )
    def test_registration_refuses_them_and_names_why(self, cls, reason):
        registry = MessageRegistry()
        with pytest.raises(CodecError, match=f"cannot register {cls.__qualname__}: {reason}"):
            registry.register(cls)
        assert not registry.is_registered(cls)
        assert list(registry.names()) == []
        with pytest.raises(CodecError, match=reason):
            ObjectPlan.compile(cls, cls.__name__)

    def test_a_class_without_fields_has_a_plan(self):
        @dataclass(frozen=True)
        class Ping:
            pass

        registry = MessageRegistry()
        registry.register(Ping)
        reference = WireReference({"Ping": Ping})
        assert registry.encode([Ping()]) == reference.encode([Ping()])
        assert registry.decode(registry.encode([Ping()])) == [Ping()]
        with pytest.raises(CodecError, match="expected no field"):
            registry.decode(_obj("Ping", {"future": 1}))
        assert outcome(reference.decode, _obj("Ping", {"future": 1})) == ("error",)

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
    PrepareOk(None, 3),                                     # an inlined class's field holding a leaf
    Command(None, b"p"),
]


class TestDepthLimit:
    @pytest.mark.parametrize("shape", _DEPTH_SHAPES, ids=repr)
    def test_both_directions_agree_with_reference_around_the_limit(self, shape):
        registry, reference = _registry_and_reference(_DEPTH_CLASSES)
        unlimited = WireReference(_DEPTH_CLASSES, max_depth=4 * MAX_DEPTH)
        verdicts = set()
        # Wrapped in ever more lists, the shape's innermost value crosses the
        # limit: ending exactly at it must work, one past it must not.
        for wraps in range(MAX_DEPTH - 12, MAX_DEPTH + 2):
            value = shape
            for _ in range(wraps):
                value = [value]
            encoded = outcome(registry.encode, value)
            assert encoded == outcome(reference.encode, value), wraps
            data = unlimited.encode(value)
            decoded = outcome(registry.decode, data)
            assert decoded == outcome(reference.decode, data), wraps
            verdicts.add((encoded[0], decoded[0]))
        assert ("ok", "ok") in verdicts and ("error", "error") in verdicts

    def test_only_the_objects_own_levels_refuse_an_inlined_field(self):
        # PrepareOk inlines its Timestamp: two levels of its own, two more
        # for the Timestamp.  With two levels left the Timestamp is too deep,
        # but a field holding a leaf is not: that field alone is read
        # generically, and only a PrepareOk without its own two levels fails.
        registry, reference = _registry_and_reference(_DEPTH_CLASSES)
        unlimited = WireReference(_DEPTH_CLASSES, max_depth=4 * MAX_DEPTH)
        for shape, wraps, verdict in (
            (PrepareOk(None, 3), MAX_DEPTH - 2, "ok"),
            (PrepareOk(Timestamp(1, 2), 3), MAX_DEPTH - 2, "error"),
            (PrepareOk(Timestamp(1, 2), 3), MAX_DEPTH - 4, "ok"),
            (PrepareOk(None, 3), MAX_DEPTH - 1, "error"),
        ):
            value = shape
            for _ in range(wraps):
                value = [value]
            data = unlimited.encode(value)
            assert outcome(registry.decode, data)[0] == verdict, (shape, wraps)
            assert outcome(reference.decode, data)[0] == verdict, (shape, wraps)
            assert outcome(registry.encode, value)[0] == verdict, (shape, wraps)


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
        value = Late((Early(1), Early(2)), "n")
        data = registry.encode(value)
        assert data == WireReference({"Early": Early, "Late": Late}).encode(value)
        decoded = registry.decode(data)
        assert decoded == value and type(decoded.items) is tuple
        buf = bytearray()
        registry.encode_many_into(buf, [value, Early(3)])
        assert registry.decode_many(buf) == [value, Early(3)]

    def test_a_second_name_for_a_class_is_refused(self):
        @dataclass(frozen=True)
        class Thing:
            x: int

        registry = MessageRegistry()
        registry.register(Thing, "old")
        old = registry.encode(Thing(1))
        with pytest.raises(CodecError, match="already registered as 'old', not 'new'"):
            registry.register(Thing, "new")
        assert list(registry.names()) == ["old"]
        assert registry.encode(Thing(1)) == old
        assert registry.decode(old) == Thing(1)
        with pytest.raises(CodecError, match="no registered type name"):
            registry.decode(WireReference({"new": Thing}).encode(Thing(1)))

    def test_registering_again_under_the_same_name_does_nothing(self):
        @dataclass(frozen=True)
        class Thing:
            x: int

        registry = MessageRegistry()
        registry.register(Thing)
        plan = registry._plans[Thing]
        data = registry.encode(Thing(1))
        assert registry.register(Thing) is Thing
        assert registry.register(Thing, "Thing") is Thing
        assert registry._plans[Thing] is plan and list(registry.names()) == ["Thing"]
        assert registry.encode(Thing(1)) == data


# ---------------------------------------------------------------------------
# (g) the generated readers and writers: fused constants, inlined leaf
#     classes, sequences of one planned class looped in place
# ---------------------------------------------------------------------------
#
# Module-level classes, so ``typing.get_type_hints`` resolves their
# annotations and the generator sees the declared types (a class local to a
# test function keeps every field generic).


@dataclass(frozen=True)
class _Leaf:
    text: str
    number: int


@dataclass(frozen=True)
class _Holder:
    leaf: _Leaf
    nothing: _Leafless
    blob: bytes
    items: tuple[_Leaf, ...] = ()


@dataclass(frozen=True)
class _Node:
    child: Any
    mark: int = 0


@dataclass(frozen=True)
class _Pairs:
    pairs: list[tuple[int, int]]


@dataclass(frozen=True)
class _SubCommand(Command):
    pass


_GENERATED_CLASSES = {
    **CLASSES,
    "_Leaf": _Leaf,
    "_Holder": _Holder,
    "_Leafless": _Leafless,
    "_Pairs": _Pairs,
    "_SubCommand": _SubCommand,
}


def _registry_and_reference(classes=_GENERATED_CLASSES, max_depth: int = MAX_DEPTH):
    registry = MessageRegistry()
    for name, cls in classes.items():
        registry.register(cls, name)
    return registry, WireReference(classes, max_depth)


def _list_of(*elements: bytes) -> bytes:
    return b"L" + struct.pack(">I", len(elements)) + b"".join(elements)


def _count_reader_calls(registry: MessageRegistry, cls: type) -> list:
    """Wrap *cls*'s generated reader; returns the list its calls are appended to."""
    plan = registry._plans[cls]
    plan._generate(registry._plans)  # otherwise built on first use, replacing the wrapper
    calls: list = []
    generated = plan.read

    def counting(codec, data, pos, end, depth):
        calls.append(pos)
        return generated(codec, data, pos, end, depth)

    plan.read = counting
    return calls


class TestGeneratedOnFirstUse:
    def test_registration_generates_nothing(self):
        registry, _ = _registry_and_reference({"_Leaf": _Leaf, "_Holder": _Holder})
        leaf, holder = registry._plans[_Leaf], registry._plans[_Holder]
        stubs = (leaf.read, leaf.write, holder.read, holder.write)
        assert all(fn.__name__ == "stub" for fn in stubs)
        data = registry.encode(_Leaf("a", 1))
        assert (leaf.read.__name__, leaf.write.__name__) == ("read", "write")
        assert holder.read.__name__ == holder.write.__name__ == "stub"  # not its turn yet
        assert registry.decode(data) == _Leaf("a", 1)

    def test_a_refused_second_name_leaves_code_that_inlined_the_first_alone(self):
        registry = MessageRegistry()
        registry.register(_Leaf, "old")
        registry.register(_Leafless)
        registry.register(_Holder)
        value = _Holder(_Leaf("a", 1), _Leafless(), b"b", (_Leaf("c", 2),))
        before = registry.encode(value)  # generated with "old" inlined
        with pytest.raises(CodecError):
            registry.register(_Leaf, "new")
        reference = WireReference({"old": _Leaf, "_Leafless": _Leafless, "_Holder": _Holder})
        assert registry.encode(value) == reference.encode(value) == before
        assert registry.decode(before) == reference.decode(before) == value


class TestOffDeclarationValues:
    """Fields holding what their annotation does not say still match the hook route."""

    VALUES = [
        Command(CommandId("c", 2**70), b"", -(2**70)),              # BIGINT leaves
        Command(CommandId(5, "seqno"), "text", None),               # every leaf another type
        Command(CommandId("c", True), bytearray(b"p"), 1.5),        # bool is not int
        Command(Timestamp(1, 2), b"p", 3),                          # another class inside
        Command(None, b"p", 3),
        Command({"client": "c", "seqno": 1}, [1, 2], (3, 4)),
        PrepareOk(Timestamp(2**70, "r"), None, []),
        PrepareOk(Timestamp(1, 2), 2**63, -(2**63) - 1),            # just past int64
        PrepareOk(Timestamp(-(2**63), 2**63 - 1), 2**63 - 1, -(2**63)),  # just inside
        _Holder(_Leaf("ü\x00", 0), _Leafless(), b"", ()),
        _Holder(_Leaf(1, "x"), None, "blob", [_Leaf("a", 1), 7]),
        _Holder(_Leafless(), _Leaf("a", 1), b"b", (_Leafless(),)),
        CommandBatch((_command(1), _SubCommand(CommandId("s", 1), b"sub"), _command(2))),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_bytes_and_round_trip_match_reference(self, value):
        registry, reference = _registry_and_reference()
        data = registry.encode(value)
        assert data == reference.encode(value)
        assert outcome(registry.decode, data) == outcome(reference.decode, data)
        assert outcome(registry.decode, data)[0] == "ok"

    def test_an_unregistered_subclass_is_refused_by_both_routes(self):
        classes = {name: cls for name, cls in _GENERATED_CLASSES.items() if cls is not _SubCommand}
        registry, reference = _registry_and_reference(classes)
        value = CommandBatch((_command(1), _SubCommand(CommandId("s", 1), b"sub")))
        assert outcome(registry.encode, value) == outcome(reference.encode, value) == ("error",)
        assert registry.encode(_command(3)) == reference.encode(_command(3))  # buffer still sane

    def test_a_list_of_tuples_field_stays_a_list(self):
        # ``declared_as_tuple`` used to say yes to any annotation *containing*
        # "tuple", on both routes (they share the function).
        registry, reference = _registry_and_reference()
        data = registry.encode(_Pairs([(1, 2), (3, 4)]))
        for decoded in (registry.decode(data), reference.decode(data)):
            assert decoded == _Pairs([[1, 2], [3, 4]]) and type(decoded.pairs) is list


_BATCHED_PREPARE = Prepare(CommandBatch((_command(1), _command(2), _command(3))), _TS, epoch=4)


class TestBatchedPrepare:
    def test_every_truncation_and_every_single_byte_corruption(self):
        data = global_registry.encode(_BATCHED_PREPARE)
        assert global_registry.decode(data) == _BATCHED_PREPARE
        for cut in range(len(data)):
            assert_decodes_like_reference(data[:cut])
        corrupted = bytearray(data)
        for pos, original in enumerate(data):
            for byte in range(256):
                if byte != original:
                    corrupted[pos] = byte
                    assert_decodes_like_reference(bytes(corrupted))
            corrupted[pos] = original


def _reordered_command_id(client: str, seqno: int) -> bytes:
    return _obj("CommandId", {"seqno": seqno, "client": client})


def _command_bytes(command_id: bytes, payload: Any = b"p", created_at: Any = 0) -> bytes:
    return (
        b"O" + _str("Command") + b"M" + struct.pack(">I", 3)
        + _str("command_id") + command_id
        + _str("payload") + REFERENCE.encode(payload)
        + _str("created_at") + REFERENCE.encode(created_at)
    )


_FIRST = REFERENCE.encode(_command(1))
_THIRD = REFERENCE.encode(_command(3))

#: Second element of a three-element sequence whose other two are plain Commands.
SECOND_ELEMENTS = {
    "another planned class": REFERENCE.encode(_TS),
    "a plain int": encode(7),
    "a nested list of commands": _list_of(_FIRST),
    "a Command subclass": None,  # filled in below, needs the subclass registered
    "nested CommandId with reordered fields": _command_bytes(_reordered_command_id("c", 2)),
    "seqno past int64": REFERENCE.encode(Command(CommandId("c", 2**70), b"p")),
    "payload under another tag": _command_bytes(REFERENCE.encode(CommandId("c", 2)), "text"),
    "command_id is not an object": _command_bytes(encode(None)),
    "Command with reordered fields": _obj(
        "Command", {"payload": b"p", "created_at": 1, "command_id": CommandId("c", 2)}
    ),
    "Command with an unknown last field": _obj(
        "Command", {"command_id": CommandId("c", 2), "payload": b"p", "future": 1}
    ),
    "Command with another field count": _obj("Command", {"command_id": CommandId("c", 2)}),
    "created_at is a list": _command_bytes(REFERENCE.encode(CommandId("c", 2)), b"p", []),
    "unregistered type name": _obj("NoSuchCommand", {"x": 1}),
    "truncated element": _FIRST[:40],
}


class TestSequences:
    @pytest.mark.parametrize("second", SECOND_ELEMENTS.keys())
    def test_an_element_of_another_kind_sends_the_rest_to_the_generic_route(self, second):
        registry, reference = _registry_and_reference()
        element = SECOND_ELEMENTS[second]
        if element is None:
            element = reference.encode(_SubCommand(CommandId("s", 1), b"sub"))
        for elements in ((_FIRST, element, _THIRD), (element, _THIRD), (_FIRST, element)):
            data = _list_of(*elements)
            assert_decodes_like_reference(data, registry, reference)
            # ... and as the tuple field the batch keeps its commands in.
            batch = b"O" + _str("CommandBatch") + b"M" + struct.pack(">I", 1) + _str("commands")
            assert_decodes_like_reference(batch + data, registry, reference)

    def test_the_elements_kinds_cover_both_verdicts(self):
        _, reference = _registry_and_reference()
        verdicts = {
            name: outcome(reference.decode, _list_of(_FIRST, element, _THIRD))[0]
            for name, element in SECOND_ELEMENTS.items()
            if element is not None
        }
        for name in ("a plain int", "seqno past int64", "command_id is not an object"):
            assert verdicts[name] == "ok"
        for name in (
            "nested CommandId with reordered fields",
            "Command with reordered fields",
            "Command with an unknown last field",
            "Command with another field count",
            "unregistered type name",
            "truncated element",
        ):
            assert verdicts[name] == "error"

    def test_mixed_sequences_encode_like_reference(self):
        registry, reference = _registry_and_reference()
        sub = _SubCommand(CommandId("s", 1), b"sub")
        for items in (
            [_command(1), _TS, _command(2)],
            [_command(1), 7, _command(2), None, [_command(3)]],
            (_command(1), sub, sub, _command(2)),
            [_Leafless(), _Leafless(), _Leaf("a", 1)],
            [],
        ):
            assert registry.encode(items) == reference.encode(items)
            holder = _Holder(_Leaf("a", 1), _Leafless(), b"", items)
            assert registry.encode(holder) == reference.encode(holder)

    def test_empty_sequences(self):
        registry, reference = _registry_and_reference()
        for value in ([], SuspendOk(1, ()), _Holder(_Leaf("a", 1), _Leafless(), b"", ())):
            data = registry.encode(value)
            assert data == reference.encode(value)
            assert registry.decode(data) == reference.decode(data) == value
        # A batch must not be empty: both routes let its constructor say so.
        empty_batch = _obj("CommandBatch", {"commands": []})
        assert outcome(registry.decode, empty_batch) == outcome(reference.decode, empty_batch)
        assert outcome(registry.decode, empty_batch) == ("error",)

    @pytest.mark.parametrize("count", [4, 2**16, 2**32 - 1])
    def test_a_hostile_count_fails_before_any_element_is_read(self, count):
        registry, reference = _registry_and_reference()
        calls = _count_reader_calls(registry, Command)
        data = b"L" + struct.pack(">I", count) + _FIRST  # one element, far fewer bytes than count
        if count > len(_FIRST):
            with pytest.raises(CodecError, match="declared count"):
                registry.decode(data)
            assert calls == []
        assert_decodes_like_reference(data, registry, reference)

    def test_hostile_alternation_of_batch_and_mismatch_is_refused_in_linear_work(self):
        # Each level is a list whose second element is an object refused
        # only at its *last* key — after the list nested in it was read.
        # The innermost refusal ends the read: one reader call per object
        # on the way down, nothing read twice.
        registry, reference = _registry_and_reference({"_Node": _Node})
        calls = _count_reader_calls(registry, _Node)
        levels = 20  # list + OBJ + MAP per level: depth 60 of the 64 allowed
        data = encode(0)
        for level in range(levels):
            mismatch = (
                b"O" + _str("_Node") + b"M" + struct.pack(">I", 2)
                + _str("child") + data + _str("future") + encode(level)
            )
            matching = b"O" + _str("_Node") + REFERENCE.encode({"child": None, "mark": level})
            data = _list_of(matching, mismatch, encode(level), matching)
        with pytest.raises(CodecError, match="expected field 'mark'"):
            registry.decode(data)
        assert outcome(reference.decode, data) == ("error",)
        assert len(calls) == 2 * levels  # a matching and a refused object per level


_SEQUENCE_DEPTH_SHAPES = [
    [_command(1), _command(2)],                              # the loop at the top
    CommandBatch((_command(1), _command(2))),                # ... as a tuple field
    Prepare(CommandBatch((_command(1), _command(2))), _TS),  # ... one object further down
    [_command(1), 7, _command(2)],                           # leaves the loop half way
    [_TS, _TS],                                              # elements that are all leaves
    [_Leafless(), _Leafless()],                              # elements that are only a head
    [PrepareOk(_TS, 3), PrepareOk(_TS, 4)],                  # elements with an inlined class
    SuspendOk(1, (PrepareRecord(_command(1), _TS), PrepareRecord(_command(2), _TS))),
    _Holder(_Leaf("a", 1), _Leafless(), b"b", (_Leaf("c", 2), _Leaf("d", 3))),
]


class TestSequenceDepthLimit:
    @pytest.mark.parametrize("shape", _SEQUENCE_DEPTH_SHAPES, ids=repr)
    def test_both_directions_agree_with_reference_at_every_depth_around_the_limit(self, shape):
        registry, reference = _registry_and_reference()
        unlimited = WireReference(_GENERATED_CLASSES, max_depth=4 * MAX_DEPTH)
        verdicts = []
        for wraps in range(MAX_DEPTH - 12, MAX_DEPTH + 2):
            value = shape
            for _ in range(wraps):
                value = [value]
            encoded = outcome(registry.encode, value)
            assert encoded == outcome(reference.encode, value), wraps
            data = unlimited.encode(value)
            decoded = outcome(registry.decode, data)
            assert decoded == outcome(reference.decode, data), wraps
            verdicts.append((encoded[0], decoded[0]))
        # One threshold per direction, the same in both: ok ... ok error ... error.
        assert verdicts[0] == ("ok", "ok") and verdicts[-1] == ("error", "error")
        assert verdicts == sorted(verdicts, reverse=True)

    def test_a_command_list_at_value_depth_d_needs_d_plus_5_levels(self):
        registry, _ = _registry_and_reference()
        unlimited = WireReference(_GENERATED_CLASSES, max_depth=4 * MAX_DEPTH)
        for depth, verdict in ((MAX_DEPTH - 5, "ok"), (MAX_DEPTH - 4, "error")):
            value = [_command(1), _command(2)]
            for _ in range(depth):
                value = [value]
            assert outcome(registry.encode, value)[0] == verdict
            assert outcome(registry.decode, unlimited.encode(value))[0] == verdict
