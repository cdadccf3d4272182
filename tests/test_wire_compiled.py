"""Differential tests: the registry's generated codecs against an independent reference.

``MessageRegistry`` encodes and decodes registered dataclasses only from
per-class plans: a type id, then every field in declared order in the form
its declaration gives it.  The reference (:mod:`tests.wire_reference`) is
plain recursion over the same grammar, sharing no code with the codec's
loops or plans, and every property says the same thing: same bytes out,
same values or the same ``CodecError`` in, for every registered class and
for malformed input.  A field value off its declaration is refused at
encode; an unknown type id is refused at decode, wherever the object sits.
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

from repro.consensus.single_paxos import PaxosP2a
from repro.core.messages import Prepare, PrepareOk, PrepareRecord, RetrieveReply, SuspendOk
from repro.errors import CodecError
from repro.net.message import MessageRegistry, global_registry
from repro.net.wire import MAX_DEPTH, ObjectPlan, encode
from repro.protocols.mencius import Suggest
from repro.protocols.multipaxos import Phase2a
from repro.protocols.records import CommandBatch
from repro.types import Command, CommandId, Timestamp
from tests.wire_reference import WireReference, library_classes, registered_names

#: name -> class for everything the library registers globally.
CLASSES: dict[str, type] = library_classes()


REFERENCE = WireReference(CLASSES)


def encode_stream(values) -> bytes:
    """*values* as one registry value stream (a batch frame's body)."""
    buf = bytearray()
    global_registry.encode_many_into(buf, values)
    return bytes(buf)


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


def _head(name: str, classes=CLASSES) -> bytes:
    """``'O' u16(type id)`` of the class registered as *name*, ids by sorted name."""
    return b"O" + struct.pack(">H", sorted(classes).index(name))


def _i64(*values: int) -> bytes:
    return b"".join(struct.pack(">q", value) for value in values)


def _sized(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


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

# Mostly the small ints protocols send; sometimes one at the edges of int64.
_ints = st.one_of(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
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
    PaxosP2a(1, 2, {"any": [Timestamp(3, 4), 2**70]}),
    {"src": 0, "dst": 1, "message": PrepareOk(Timestamp(-(2**63), 1), -1)},
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
        assert set(CLASSES) == set(registered_names(global_registry))

    @pytest.mark.parametrize("cls", CLASSES.values(), ids=CLASSES.keys())
    def test_every_library_class_gets_a_plan(self, cls):
        plan = ObjectPlan.compile(cls, cls.__name__)
        assert plan.cls is cls
        assert [name for name, _ in plan.fields] == [f.name for f in dataclasses.fields(cls)]

    def test_type_ids_are_the_sorted_names(self):
        lines = global_registry.table()
        assert [line.split()[0] for line in lines] == [str(i) for i in range(len(lines))]
        assert [line.split()[1].split("(")[0] for line in lines] == sorted(CLASSES)


#: ``PrepareOk(Timestamp(5, 1), 9)`` spelled out by hand from the grammar:
#: its head, then Timestamp inline (micros, replica), clock_micros, epoch.
_PREPARE_OK_BYTES = _head("PrepareOk") + _i64(5, 1, 9, 0)


class TestReference:
    def test_the_reference_spells_the_grammar(self):
        value = PrepareOk(Timestamp(5, 1), 9)
        assert REFERENCE.encode(value) == _PREPARE_OK_BYTES
        assert REFERENCE.decode(_PREPARE_OK_BYTES) == value
        assert global_registry.encode(value) == _PREPARE_OK_BYTES
        assert global_registry.decode(_PREPARE_OK_BYTES) == value

    def test_a_command_spelled_out(self):
        value = _command(3)
        spelled = (
            _head("Command") + _sized(b"client") + _i64(3) + _sized(b"payload-3") + _i64(7)
        )
        assert REFERENCE.encode(value) == global_registry.encode(value) == spelled
        batch = CommandBatch((value, value))
        spelled_batch = _head("CommandBatch") + struct.pack(">I", 2) + 2 * spelled[3:]
        assert REFERENCE.encode(batch) == global_registry.encode(batch) == spelled_batch

    def test_the_reference_refuses_other_spellings(self):
        with pytest.raises(CodecError):
            REFERENCE.decode(_PREPARE_OK_BYTES[:-1])
        with pytest.raises(CodecError):
            REFERENCE.decode(_PREPARE_OK_BYTES + b"N")
        with pytest.raises(CodecError):
            REFERENCE.decode(b"O" + struct.pack(">H", len(CLASSES)))


def _prepare_of(count: int) -> Prepare:
    commands = tuple(_command(seqno) for seqno in range(1, count + 1))
    return Prepare(commands[0] if count == 1 else CommandBatch(commands), Timestamp(5, 1), epoch=2)


class TestPinnedSizes:
    """What the messages the protocols send most cost on the wire."""

    @pytest.mark.parametrize(
        "value, size",
        [
            (PrepareOk(Timestamp(5, 1), 99), 35),
            (_prepare_of(1), 69),
            (_prepare_of(64), 2_585),
        ],
        ids=["prepareok", "prepare1", "prepare64"],
    )
    def test_byte_counts(self, value, size):
        assert len(REFERENCE.encode(value)) == size
        assert len(global_registry.encode(value)) == size


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
        assert global_registry.decode_many(encode_stream(values)) == values

    @given(any_message)
    def test_any_bytes_like_is_accepted(self, value):
        data = global_registry.encode(value)
        framed = b"\xff" * 4 + data
        assert global_registry.decode(bytearray(data)) == value
        assert global_registry.decode(memoryview(framed)[4:]) == value
        assert global_registry.decode_many(memoryview(framed)[4:]) == [value]

    def test_objects_built_through_their_slots_equal_constructed_ones(self):
        for value in (_command(4), PrepareOk(Timestamp(5, 1), 99), Timestamp(1, 2)):
            decoded = global_registry.decode(global_registry.encode(value))
            assert decoded == value and hash(decoded) == hash(value)
            assert type(decoded) is type(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(decoded, dataclasses.fields(decoded)[0].name, None)


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
        data = bytearray(encode_stream(values))
        pos = index % len(data)
        data[pos] = (data[pos] + delta) % 256
        assert outcome(global_registry.decode_many, bytes(data)) == outcome(
            REFERENCE.decode_many, bytes(data)
        )


# ---------------------------------------------------------------------------
# (d) malformed objects are refused wherever they sit
# ---------------------------------------------------------------------------


def _str(text: str) -> bytes:
    return encode(text)


_TS = Timestamp(5, 1)
_COMMAND_ID = _sized(b"c") + _i64(2)

#: OBJ bytes the grammar does not read as an object.  Every one is a
#: ``CodecError``, wherever it sits.
REFUSED = {
    "type id not registered": b"O" + struct.pack(">H", len(CLASSES)) + _i64(1),
    "type id cut short": b"O\x00",
    "the named layout of another wire": b"O" + _str("PrepareOk") + encode({"ts": None}),
    "body cut short": _PREPARE_OK_BYTES[:-1],
    "string length beyond the buffer": _head("CommandId") + struct.pack(">I", 2**32 - 1) + b"c",
    "string not utf-8": _head("CommandId") + _sized(b"\xff\xfe") + _i64(2),
    "tuple count beyond the buffer": _head("CommandBatch") + struct.pack(">I", 2**32 - 1),
    "empty batch refused by __post_init__": _head("CommandBatch") + struct.pack(">I", 0),
    "generic field with an unknown tag": _head("Prepare") + b"Z" + _i64(5, 1, 0),
    "object inside a generic field cut short": _head("Prepare") + _head("Command") + _COMMAND_ID,
}

#: Generic fields (``Any``, a union) hold whatever value the grammar reads.
GENERIC_VALUES = {
    "an int where a command is due": _head("Prepare") + encode(5) + _i64(5, 1, 0),
    "a list of commands": (
        _head("Phase2a") + _i64(7) + b"L" + struct.pack(">I", 1) + REFERENCE.encode(_command())
    ),
    "nothing at all": _head("PaxosP2a") + _i64(1, 2) + b"N",
}


def _wrapped(data: bytes) -> list[bytes]:
    """*data* wherever an OBJ can sit: alone, in a list, as a map value."""
    return [
        data,
        b"L" + struct.pack(">I", 2) + data + encode(1),
        b"M" + struct.pack(">I", 1) + _str("k") + data,
    ]


class TestRefusedObjects:
    @pytest.mark.parametrize("data", REFUSED.values(), ids=REFUSED.keys())
    def test_refused_wherever_it_sits(self, data):
        for wrapped in _wrapped(data):
            with pytest.raises(CodecError):
                global_registry.decode(wrapped)
            assert outcome(REFERENCE.decode, wrapped) == ("error",)
        stream = _PREPARE_OK_BYTES + data + _PREPARE_OK_BYTES
        with pytest.raises(CodecError):
            global_registry.decode_many(stream)
        assert outcome(REFERENCE.decode_many, stream) == ("error",)

    @pytest.mark.parametrize("data", GENERIC_VALUES.values(), ids=GENERIC_VALUES.keys())
    def test_generic_fields_decode_like_reference(self, data):
        for wrapped in _wrapped(data):
            assert_decodes_like_reference(wrapped)
            assert outcome(global_registry.decode, wrapped)[0] == "ok"
        assert outcome(global_registry.decode_many, data + data) == outcome(
            REFERENCE.decode_many, data + data
        )

    def test_an_unregistered_type_id_is_refused(self):
        with pytest.raises(CodecError, match="no registered type name"):
            global_registry.decode(REFUSED["type id not registered"])

    def test_hostile_nesting_builds_at_most_depth_objects_and_raises(self):
        # Objects nested in their generic field, the innermost holding junk:
        # every enclosing object is read once, none is built.
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
        data = b"O\x00\x00" + b"Z" + _i64(0)
        for level in range(depth):
            data = b"O\x00\x00" + data + _i64(level)
        with pytest.raises(CodecError, match="unknown wire tag"):
            registry.decode(data)
        assert built == []
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
        assert registered_names(registry) == []
        with pytest.raises(CodecError, match=reason):
            ObjectPlan.compile(cls, cls.__name__)

    def test_a_class_without_fields_has_a_plan(self):
        @dataclass(frozen=True)
        class Ping:
            pass

        registry = MessageRegistry()
        registry.register(Ping)
        reference = WireReference({"Ping": Ping})
        assert registry.encode([Ping()]) == reference.encode([Ping()]) == encode([])[:1] + (
            struct.pack(">I", 1) + b"O\x00\x00"
        )
        assert registry.decode(registry.encode([Ping()])) == [Ping()]
        with pytest.raises(CodecError, match="trailing"):
            registry.decode(b"O\x00\x00" + encode(1))


# ---------------------------------------------------------------------------
# (e) the depth limit falls where the reference puts it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Leafless:
    pass


_DEPTH_CLASSES = {**CLASSES, "_Leafless": _Leafless}
_DEPTH_SHAPES = [
    Timestamp(1, 2),                                        # leaves only
    PrepareOk(Timestamp(1, 2), 3),                          # a class inlined
    SuspendOk(1, ()),                                       # an empty tuple inside
    SuspendOk(1, (PrepareRecord(_command(), _TS),)),        # tuple -> object -> object
    Prepare(CommandBatch((_command(),)), _TS),
    {"message": Timestamp(1, 2)},
    _Leafless(),                                            # an object with no body
    Phase2a(7, _Leafless()),                                # ... in a generic field
    PaxosP2a(1, 2, 2**70),                                  # a BIGINT in a generic field
    PaxosP2a(1, 2, [[]]),                                   # lists in a generic field
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

    def test_an_inlined_class_takes_a_level_of_its_own(self):
        # PrepareOk inlines its Timestamp: one level for the object, one for
        # the Timestamp's body.  A Timestamp alone needs one.
        registry, reference = _registry_and_reference(_DEPTH_CLASSES)
        unlimited = WireReference(_DEPTH_CLASSES, max_depth=4 * MAX_DEPTH)
        for shape, wraps, verdict in (
            (PrepareOk(Timestamp(1, 2), 3), MAX_DEPTH - 2, "ok"),
            (PrepareOk(Timestamp(1, 2), 3), MAX_DEPTH - 1, "error"),
            (Timestamp(1, 2), MAX_DEPTH - 1, "ok"),
            (Timestamp(1, 2), MAX_DEPTH, "error"),
        ):
            value = shape
            for _ in range(wraps):
                value = [value]
            data = unlimited.encode(value)
            assert outcome(registry.decode, data)[0] == verdict, (shape, wraps)
            assert outcome(reference.decode, data)[0] == verdict, (shape, wraps)
            assert outcome(registry.encode, value)[0] == verdict, (shape, wraps)


# ---------------------------------------------------------------------------
# (f) late registration, type ids and the digest
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

    def test_a_registration_renumbers_and_changes_the_digest(self):
        registry = MessageRegistry()
        registry.register(_Leafless)
        before, digest = registry.encode(_Leafless()), registry.digest()
        assert before == b"O\x00\x00" and registry.table() == ["0 _Leafless()"]
        registry.register(_Leaf)  # sorts first: the earlier class moves to id 1
        assert registry.encode(_Leafless()) == b"O\x00\x01"
        assert registry.table() == ["0 _Leaf(text:str,number:int)", "1 _Leafless()"]
        assert registry.digest() != digest and len(registry.digest()) == 16

    def test_a_second_class_of_the_same_name_is_refused(self):
        def thing():
            @dataclass(frozen=True)
            class Thing:
                x: int

            return Thing

        first, second = thing(), thing()
        registry = MessageRegistry()
        registry.register(first)
        data = registry.encode(first(1))
        with pytest.raises(CodecError, match="'Thing' already registered"):
            registry.register(second)
        assert registered_names(registry) == ["Thing"]
        assert registry.table() == ["0 Thing(x:int)"]
        assert registry.encode(first(1)) == data
        assert registry.decode(data) == first(1)

    def test_registering_again_under_the_same_name_does_nothing(self):
        @dataclass(frozen=True)
        class Thing:
            x: int

        registry = MessageRegistry()
        registry.register(Thing)
        plan = registry._plans[Thing]
        data = registry.encode(Thing(1))
        assert registry.register(Thing) is Thing
        assert registry._plans[Thing] is plan and registered_names(registry) == ["Thing"]
        assert registry.encode(Thing(1)) == data


# ---------------------------------------------------------------------------
# (g) the generated readers and writers: inlined classes, fixed-form
#     tuples, sequences of one class looped in place
# ---------------------------------------------------------------------------
#
# Module-level classes, so ``typing.get_type_hints`` resolves their
# annotations and the generator sees the declared types (a class local to a
# test function whose fields name other local classes keeps every field
# generic).


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
class _Tree:
    label: int
    children: tuple[_Tree, ...] = ()


@dataclass(frozen=True)
class _Pairs:
    pairs: list[tuple[int, int]]
    fixed: typing.Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class _SubCommand(Command):
    pass


_GENERATED_CLASSES = {
    **CLASSES,
    "_Leaf": _Leaf,
    "_Holder": _Holder,
    "_Leafless": _Leafless,
    "_Node": _Node,
    "_Tree": _Tree,
    "_Pairs": _Pairs,
    "_SubCommand": _SubCommand,
}


def _registry_and_reference(classes=_GENERATED_CLASSES, max_depth: int = MAX_DEPTH):
    registry = MessageRegistry()
    for cls in classes.values():
        registry.register(cls)
    return registry, WireReference(classes, max_depth)


def _list_of(*elements: bytes) -> bytes:
    return b"L" + struct.pack(">I", len(elements)) + b"".join(elements)


def _count_reader_calls(registry: MessageRegistry, cls: type) -> list:
    """Wrap *cls*'s generated reader; returns the list its calls are appended to."""
    plan = registry._plans[cls]
    plan._generate()  # otherwise built on first use, replacing the wrapper
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

    def test_a_refused_registration_leaves_the_generated_code_alone(self):
        registry = MessageRegistry()
        registry.register(_Leaf)
        registry.register(_Leafless)
        registry.register(_Holder)
        value = _Holder(_Leaf("a", 1), _Leafless(), b"b", (_Leaf("c", 2),))
        before = registry.encode(value)  # generated with _Leaf inlined
        with pytest.raises(CodecError):
            registry.register(dataclass(frozen=True)(type("_Leaf", (), {})))
        reference = WireReference({"_Leaf": _Leaf, "_Leafless": _Leafless, "_Holder": _Holder})
        assert registry.encode(value) == reference.encode(value) == before
        assert registry.decode(before) == reference.decode(before) == value

    def test_a_class_inside_itself_round_trips_like_reference(self):
        registry, reference = _registry_and_reference()
        tree = _Tree(1, (_Tree(2), _Tree(3, (_Tree(4),))))
        data = registry.encode(tree)
        assert data == reference.encode(tree)
        assert registry.decode(data) == reference.decode(data) == tree
        for cut in range(len(data)):
            assert_decodes_like_reference(data[:cut], registry, reference)


class TestOffDeclarationValues:
    """A field holding what its declaration does not say is refused at encode."""

    VALUES = {
        "seqno beyond int64": (Command(CommandId("c", 2**70), b""), "'Command': an int beyond int64"),
        "created_at just past int64": (Command(CommandId("c", 1), b"", -(2**63) - 1), "an int beyond int64"),
        "client is not a str": (Command(CommandId(5, 1), b""), "CommandId.client"),
        "bool is not int": (Command(CommandId("c", True), b""), "CommandId.seqno"),
        "bytearray is not bytes": (Command(CommandId("c", 1), bytearray(b"p")), "Command.payload"),
        "another class inlined": (Command(Timestamp(1, 2), b"p"), "Command.command_id"),
        "nothing where a class is due": (PrepareOk(None, 3), "PrepareOk.ts"),
        "a list where a tuple is due": (SuspendOk(1, []), "SuspendOk.records"),
        "an element of another class": (
            _Holder(_Leaf("a", 1), _Leafless(), b"", (_Leafless(),)), "_Holder.items[]"
        ),
        "an unregistered subclass": (
            CommandBatch((_command(1), Command.__new__(type("Sub", (Command,), {})))), "CommandBatch.commands[]"
        ),
        "a registered subclass where its base is declared": (
            CommandBatch((_command(1), _SubCommand(CommandId("s", 1), b"sub"))), "CommandBatch.commands[]"
        ),
    }

    @pytest.mark.parametrize("value, where", VALUES.values(), ids=VALUES.keys())
    def test_refused_by_both_routes_and_named(self, value, where):
        registry, reference = _registry_and_reference()
        with pytest.raises(CodecError, match=where.replace("[", r"\[").replace("]", r"\]")):
            registry.encode(value)
        assert outcome(reference.encode, value) == ("error",)
        assert registry.encode(_command(3)) == reference.encode(_command(3))  # buffer still sane

    def test_ints_at_the_edges_of_int64_fit(self):
        registry, reference = _registry_and_reference()
        value = PrepareOk(Timestamp(-(2**63), 2**63 - 1), 2**63 - 1, -(2**63))
        data = registry.encode(value)
        assert data == reference.encode(value) and registry.decode(data) == value

    def test_generic_fields_take_any_value(self):
        registry, reference = _registry_and_reference()
        for value in (
            _Node(_Node(None, 1), 2),
            _Node({"k": [_Leaf("ü\x00", 0), 2**70]}),
            Phase2a(7, Timestamp(1, 2)),
            _Pairs([(1, 2), (3, 4)], [5, 6]),
        ):
            data = registry.encode(value)
            assert data == reference.encode(value)
            assert outcome(registry.decode, data) == outcome(reference.decode, data)

    def test_a_list_of_tuples_field_stays_a_list(self):
        # Only a generic field declared as a tuple turns a decoded list back.
        registry, reference = _registry_and_reference()
        data = registry.encode(_Pairs([(1, 2), (3, 4)], [5, 6]))
        for decoded in (registry.decode(data), reference.decode(data)):
            assert decoded == _Pairs([[1, 2], [3, 4]], (5, 6))
            assert type(decoded.pairs) is list and type(decoded.fixed) is tuple


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

    def test_every_truncation_of_a_64_command_prepare(self):
        data = global_registry.encode(_prepare_of(64))
        assert global_registry.decode(data) == _prepare_of(64)
        for cut in range(0, len(data), 7):
            assert_decodes_like_reference(data[:cut])


_FIRST = REFERENCE.encode(_command(1))
_THIRD = REFERENCE.encode(_command(3))

#: Second element of a three-element LIST whose other two are plain Commands.
SECOND_ELEMENTS = {
    "another class": REFERENCE.encode(_TS),
    "a plain int": encode(7),
    "a nested list of commands": _list_of(_FIRST),
    "a Command subclass": None,  # filled in below, needs the subclass registered
    "unregistered type id": b"O\xff\xff" + _i64(1),
    "truncated element": _FIRST[:20],
    "a string length beyond the buffer": _head("Command") + struct.pack(">I", 2**32 - 1),
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
            # ... and as the generic field of a message.
            phase2a = _head("Phase2a", _GENERATED_CLASSES) + _i64(7)
            assert_decodes_like_reference(phase2a + data, registry, reference)

    def test_the_elements_kinds_cover_both_verdicts(self):
        _, reference = _registry_and_reference()
        verdicts = {
            name: outcome(reference.decode, _list_of(_FIRST, element, _THIRD))[0]
            for name, element in SECOND_ELEMENTS.items()
            if element is not None
        }
        for name in ("another class", "a plain int", "a nested list of commands"):
            assert verdicts[name] == "ok"
        for name in ("unregistered type id", "truncated element", "a string length beyond the buffer"):
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
            node = _Node(items)
            assert registry.encode(node) == reference.encode(node)

    def test_empty_sequences(self):
        registry, reference = _registry_and_reference()
        for value in ([], SuspendOk(1, ()), _Holder(_Leaf("a", 1), _Leafless(), b"", ())):
            data = registry.encode(value)
            assert data == reference.encode(value)
            assert registry.decode(data) == reference.decode(data) == value

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

    @pytest.mark.parametrize("count", [2, 3, 2**16, 2**32 - 1])
    def test_a_hostile_tuple_count_fails_before_any_element_is_read(self, count):
        # A Command takes at least 24 bytes: a count the bytes left cannot
        # hold fails before the loop, whatever the elements would be.
        registry, reference = _registry_and_reference()
        batch = _head("CommandBatch", _GENERATED_CLASSES) + struct.pack(">I", count)
        data = batch + 2 * _FIRST[3:]
        verdict = outcome(registry.decode, data)
        assert verdict == outcome(reference.decode, data)
        assert verdict[0] == ("ok" if count == 2 else "error")
        if count > 3:
            with pytest.raises(CodecError, match="declared count"):
                registry.decode(data)

    def test_nested_objects_are_read_once_each(self):
        # Each level is a list holding a node whose generic field nests the
        # level below; the innermost value is refused.  The refusal ends the
        # read: one reader call per object on the way down, nothing twice.
        registry, reference = _registry_and_reference({"_Node": _Node})
        calls = _count_reader_calls(registry, _Node)
        levels = 20  # list + object per level: depth 40 of the 64 allowed
        matching = reference.encode(_Node(None, 0))
        data = b"Z"
        for level in range(levels):
            nesting = b"O\x00\x00" + data + _i64(level)
            data = _list_of(matching, nesting, encode(level), matching)
        with pytest.raises(CodecError, match="unknown wire tag"):
            registry.decode(data)
        assert outcome(reference.decode, data) == ("error",)
        assert len(calls) == 2 * levels  # a matching and a nesting object per level


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
    _Tree(1, (_Tree(2, (_Tree(3),)),)),
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

    def test_a_command_list_at_value_depth_d_needs_d_plus_3_levels(self):
        # The list, each Command, and the CommandId inlined in it.
        registry, _ = _registry_and_reference()
        unlimited = WireReference(_GENERATED_CLASSES, max_depth=4 * MAX_DEPTH)
        for depth, verdict in ((MAX_DEPTH - 3, "ok"), (MAX_DEPTH - 2, "error")):
            value = [_command(1), _command(2)]
            for _ in range(depth):
                value = [value]
            assert outcome(registry.encode, value)[0] == verdict
            assert outcome(registry.decode, unlimited.encode(value))[0] == verdict
