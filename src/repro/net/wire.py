"""A compact, self-describing binary codec.

The paper serializes messages with Google Protocol Buffers.  The evaluated
quantities (message counts and wide-area latencies) do not depend on the wire
format, so this reproduction ships a small dependency-free codec instead.  It
supports the primitive types the protocols need plus *registered* dataclass
types (see :mod:`repro.net.message`), and is used by the asyncio TCP
transport and the file-backed command log.

Wire grammar (all integers big-endian)::

    value   := NONE | TRUE | FALSE | INT | BIGINT | FLOAT | STR | BYTES
             | LIST | MAP | OBJ
    NONE    := 'N'
    TRUE    := 'T'
    FALSE   := 'F'
    INT     := 'I' int64
    BIGINT  := 'J' u32 length, two's-complement bytes
    FLOAT   := 'D' float64
    STR     := 'S' u32 length, utf-8 bytes
    BYTES   := 'B' u32 length, raw bytes
    LIST    := 'L' u32 count, value*
    MAP     := 'M' u32 count, (value value)*
    OBJ     := 'O' STR(type-name) MAP(field-name -> value)

Implementation notes (the wire hot path):

* Containers are coded **iteratively** (an explicit work stack), so nesting
  depth is a checked limit (:data:`MAX_DEPTH`) raising
  :class:`~repro.errors.CodecError` — never a Python ``RecursionError`` a
  malicious peer could trigger remotely.
* Registered dataclasses are coded only by **generated straight-line code**
  (:class:`ObjectPlan`, built when the class is registered — a class that
  cannot be planned cannot be registered; its reader and writer are
  generated when the class is first coded).  Each class has one wire
  spelling: its type name, then every field in declared order.  Everything
  constant between two variable leaves — the OBJ head ``'O' STR(type-name)
  'M' u32(n)``, the ``STR(field-name)`` keys, the tag of a field declared
  ``int`` / ``str`` / ``bytes``, head and keys of a nested class made only
  of such leaves — is one ``bytes`` constant: packed with the leaf after it
  on encode, compared in place on decode, which ends in ``cls(*values)``.
  An OBJ whose type name has no plan, or whose head or keys are not the
  plan's (another field count, an unknown, reordered or omitted field) is a
  ``CodecError``.  Only a field *value* that is not what its declaration
  says (another type, an int beyond int64) is coded by the generic routines,
  that field alone.  A LIST whose elements begin with one planned class's
  head is looped over that class's reader, a run of one planned class over
  its writer.  The generated code recurses only from an OBJ into a value
  nested in it, each OBJ costing two levels of the same checked
  ``max_depth``.
* A MAP is coded pair by pair in place while its pairs are a STR key with
  an int64 INT or a planned OBJ — the shape of a transport frame's header —
  with the OBJ going straight to its plan; the first pair of another shape
  and every pair after it go through the work stack.  Same bytes, same
  checks, either way.
* The encoder appends into one reusable ``bytearray`` using preallocated
  :class:`struct.Struct` packers with fused tag+value formats — no
  per-value ``bytes`` temporaries joined at the end.  ``encode_into`` /
  ``encode_many_into`` expose the same path to callers (the TCP transport)
  that want to fuse their own framing header into the same buffer.
* The decoder reads ``bytes`` in place and only materializes the STR/BYTES
  leaves; fixed-width fields are ``unpack_from`` reads.  (Another buffer
  type is copied to ``bytes`` once: slicing leaves out of a ``memoryview``
  one by one costs more than the copy.)  Declared lengths are validated
  against the remaining buffer *before* any allocation, so a corrupted
  length field fails fast instead of attempting a giant allocation.
* Every malformed-input failure mode — truncation, unknown tags, lengths
  beyond the buffer or beyond u32, unhashable MAP keys, invalid UTF-8, an
  OBJ off its registered layout, and constructors choking on bad fields —
  surfaces as ``CodecError``, the documented contract that lets transport
  readers treat any decode failure as a protocol error instead of dying on
  a stray ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import struct
import types
import typing
from typing import Any, Callable, Mapping, Optional

from ..errors import CodecError

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_U32_MAX = 2**32 - 1

#: Maximum container nesting the codec will encode or decode.  Deeper
#: payloads raise :class:`~repro.errors.CodecError`; protocol messages are a
#: handful of levels deep, so the limit only ever triggers on hostile or
#: corrupted input (each OBJ costs two levels: the OBJ and its field MAP).
MAX_DEPTH = 64

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

# Fused tag+payload packers for the fixed-width wire forms: one pack_into
# writes both the tag byte and the big-endian payload, no temporaries.
_TAG_I64 = struct.Struct(">Bq")   # 'I' int64
_TAG_F64 = struct.Struct(">Bd")   # 'D' float64
_TAG_U32 = struct.Struct(">BI")   # any tag followed by a u32 length/count

_PAD9 = bytes(_TAG_I64.size)
_PAD5 = bytes(_TAG_U32.size)

_TAG_N = 0x4E  # 'N'
_TAG_T = 0x54  # 'T'
_TAG_F = 0x46  # 'F'
_TAG_I = 0x49  # 'I'
_TAG_J = 0x4A  # 'J'
_TAG_D = 0x44  # 'D'
_TAG_S = 0x53  # 'S'
_TAG_B = 0x42  # 'B'
_TAG_L = 0x4C  # 'L'
_TAG_M = 0x4D  # 'M'
_TAG_O = 0x4F  # 'O'


def declared_as_tuple(field: dataclasses.Field) -> bool:
    """Whether a dataclass field is annotated as a tuple.

    The wire format does not distinguish tuples from lists; fields declared
    as tuples are converted back on decode so equality round-trips.  Only the
    annotation's outermost type counts: ``tuple[...]`` / ``Tuple[...]``,
    alone or as every non-``None`` member of an ``Optional`` / union.
    """
    annotation = field.type
    if not isinstance(annotation, str):
        union = typing.get_origin(annotation) in (typing.Union, types.UnionType)
        members = typing.get_args(annotation) if union else (annotation,)
        members = [m for m in members if m is not type(None)]
        return bool(members) and all((typing.get_origin(m) or m) is tuple for m in members)
    # Source text (``from __future__ import annotations``): unwrap Optional /
    # Union, drop every bracketed parameter list, look at the names left.
    text = annotation.replace(" ", "")
    wrapped = re.fullmatch(r"(?:\w+\.)?(?:Optional|Union)\[(.*)\]", text)
    text, dropped = (wrapped[1] if wrapped else text), 1
    while dropped:
        text, dropped = re.subn(r"\[[^\[\]]*\]", "", text)
    members = [m for m in re.split(r"[|,]", text) if m != "None"]
    return bool(members) and all(re.fullmatch(r"(?:\w+\.)?[tT]uple", m) for m in members)


def _type_hints(cls: type) -> dict[str, Any]:
    try:
        return typing.get_type_hints(cls)
    except Exception:  # evaluating annotations runs arbitrary expressions
        return {}  # unresolvable (a class local to a function): all fields generic


class _OffPlan(struct.error):
    """Raised by generated code: the field at hand is not what its plan says."""


def _off_layout(plan: "ObjectPlan", field: int, pos: int) -> CodecError:
    """The error for an OBJ of *plan*'s type name not in the one layout its plan writes."""
    due = f"field {plan.fields[field][0]!r}" if plan.fields else "no field"
    return CodecError(
        f"{plan.name!r} object not in its registered layout (all fields, in declared "
        f"order): expected {due} at offset {pos}"
    )


#: Wire tag of a field whose *declared* type is exactly one of these.
_LEAF_TAGS = {int: b"I", str: b"S", bytes: b"B"}

# Source of the generated reader (see ``ObjectPlan._generate``): one leaf whose
# tag ends at ``pos`` into ``{into}``, and one constructor call into ``{into}``.
_READ_SIZED = (
    "if pos + 4 > end: raise CodecError('truncated wire data')\n"
    "  n = u32(data, pos)[0]; pos += 4\n"
    "  if n > end - pos: raise CodecError("
    "f'declared length {{n}} exceeds the {{end - pos}} bytes remaining')\n"
    "  {into} = data[pos:pos + n]; pos += n"
)
_READ_LEAF = {
    int: "if pos + 8 > end: raise CodecError('truncated wire data')\n"
    "  {into} = i64(data, pos)[0]; pos += 8",
    bytes: _READ_SIZED,
    str: _READ_SIZED + "\n  try: {into} = {into}.decode('utf-8')\n"
    "  except UnicodeDecodeError as exc: raise CodecError(f'invalid utf-8 in string: {{exc}}') from exc",
}
_BUILD = (
    "try: {into} = {cls}({args})\n"
    "{pad}except CodecError: raise\n"
    "{pad}except Exception as exc: raise CodecError("
    "f'cannot build {{{name}!r}} from its decoded fields: {{exc}}') from exc"
)


class ObjectPlan:
    """Everything the codec needs to know about one registered dataclass.

    Compiled once, at registration, from what is constant per class: the
    OBJ head ``'O' STR(type-name) 'M' u32(field-count)`` and one
    ``STR(field-name)`` key per field as ready-made bytes, the field names
    in declared order, and which fields are declared as tuples.

    ``read(decoder, data, pos, end, depth) -> (value, pos)``, called with
    *pos* at the ``'O'`` tag of an OBJ that has this plan's type name, and
    ``write(encoder, buf, value, depth)`` are that layout as straight-line
    code, generated the first time either is called (:meth:`_generate`).
    """

    __slots__ = ("cls", "name", "head", "fields", "read", "write")

    def __init__(self, cls: type, name: str) -> None:
        fields = dataclasses.fields(cls)
        self.cls = cls
        self.name = name
        # The constants come from the generic encoder, so they are its bytes.
        self.head = b"O" + encode(name) + _TAG_U32.pack(_TAG_M, len(fields))
        #: ``(field name, STR(field name), declared as tuple)`` in declared order
        self.fields = tuple(
            (f.name, encode(f.name), declared_as_tuple(f)) for f in fields
        )
        self.reset()

    @classmethod
    def compile(cls, dataclass: type, name: str) -> "ObjectPlan":
        """The plan of *dataclass* registered as *name*.

        A class can be planned only if ``cls(*values)`` with its fields in
        declared order is the same call as ``cls(**fields)``: every field is
        a positional-or-keyword constructor parameter and there is no other
        parameter.  Otherwise raises :class:`~repro.errors.CodecError`
        naming what stands in the way: an ``init=False`` or keyword-only
        field, an ``InitVar``, or a hand-written ``__init__``.
        """
        fields = dataclasses.fields(dataclass)
        names = [f.name for f in fields]
        try:
            parameters = list(inspect.signature(dataclass).parameters.values())
        except (TypeError, ValueError):
            parameters = []
        if [p.name for p in parameters] == names and all(
            p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters
        ):
            return cls(dataclass, name)
        reasons = [f"field {f.name!r} has init=False" for f in fields if not f.init]
        reasons += [f"{p.name!r} is keyword-only" for p in parameters if p.kind is p.KEYWORD_ONLY]
        # A generated __init__'s only parameters that are not fields: InitVars.
        annotated = {n for c in dataclass.__mro__ for n in vars(c).get("__annotations__", {})}
        reasons += [
            f"{p.name!r} is an InitVar" for p in parameters if p.name not in names and p.name in annotated
        ]  # fmt: skip
        raise CodecError(
            f"cannot register {dataclass.__qualname__}: "
            + (reasons[0] if reasons else "its __init__ is hand-written")
            + "; a message class is built as cls(*fields in declared order)"
        )

    def reset(self) -> None:
        """Forget the generated ``read`` / ``write``: the next call of either builds both."""

        def first(attr: str) -> Callable[..., Any]:
            def stub(codec: Any, *args: Any) -> Any:
                self._generate(codec._plans)
                return getattr(self, attr)(codec, *args)

            return stub

        self.read, self.write = first("read"), first("write")

    @staticmethod
    def _leaves(key: bytes, hint: Any, plans: Mapping[Any, "ObjectPlan"]):
        """How a field declared as *hint* is coded in place, if it is.

        Returns ``(nested plan or None, [(constant, leaf type), ...])``: each
        variable leaf with the constant bytes before it — the field's *key*,
        head and keys of an inlined class, the leaf's tag.  ``int`` / ``str``
        / ``bytes`` is one leaf; a class of *plans* made only of those is
        inlined (without fields: one constant, no leaf); any other field has
        no leaves and goes through the generic routines.
        """
        if not isinstance(hint, type):
            return None, []
        if hint in _LEAF_TAGS:
            return None, [(key + _LEAF_TAGS[hint], hint)]
        nested, hints = plans.get(hint), _type_hints(hint)
        if nested is None or any(hints.get(n) not in _LEAF_TAGS for n, _, _ in nested.fields):
            return None, []
        leaves, constant = [], key + nested.head
        for name, inner_key, _ in nested.fields:
            leaves.append((constant + inner_key + _LEAF_TAGS[hints[name]], hints[name]))
            constant = b""
        return nested, leaves or [(constant, None)]

    def _generate(self, plans: Mapping[Any, "ObjectPlan"]) -> None:
        """Build ``read`` and ``write`` from this plan, as ``dataclasses`` builds ``__init__``.

        Everything constant between two variable leaves is one ``bytes``
        constant: packed by the writer with the leaf that follows it,
        compared in place by the reader.  A field whose value is not what its
        declaration says — another type, an int beyond int64, a leaf under
        another tag, a nested object too deep to inline — raises ``OffPlan``
        and goes through the codec's generic routines, that field alone; a
        head or *key* that is not the planned one is a ``CodecError``.
        Only offsets and field names are written into the source; bytes,
        classes and type names enter through *scope*.
        """
        scope: dict[str, Any] = {
            "plan": self, "CodecError": CodecError, "OffPlan": _OffPlan, "off_layout": _off_layout,
            "struct_error": struct.error, "u32": _U32.unpack_from, "i64": _I64.unpack_from,
        }  # fmt: skip

        def const(value: Any) -> str:
            scope[f"c{len(scope)}"] = value
            return f"c{len(scope) - 1}"

        def build(pad: str, into: str, plan: ObjectPlan, var: str) -> str:
            args = ", ".join(f"{var}{i}" for i in range(len(plan.fields)))
            return pad + _BUILD.format(
                pad=pad, into=into, cls=const(plan.cls), name=const(plan.name), args=args
            )

        hints = _type_hints(self.cls)
        read: list[str] = []
        write: list[str] = []
        for i, (name, key, as_tuple) in enumerate(self.fields):
            key = self.head * (not i) + key  # the head is part of the first constant
            nested, leaves = self._leaves(key, hints.get(name), plans)
            key_const = const(key)
            generic = [
                f"if not data.startswith({key_const}, pos): raise off_layout(plan, {i}, pos)",
                f"v{i}, pos = codec._read(data, pos + {len(key)}, end, d2)",
                *[f"if type(v{i}) is list: v{i} = tuple(v{i})"] * as_tuple,
            ]
            write.append(f" item = value.{name}")
            if not leaves:
                read += [" " + line for line in generic]
                write += [
                    f" buf += {key_const}",
                    " if type(item) is tuple or type(item) is list:"
                    " codec._write_sequence(buf, item, d2)",
                    " else: codec._write(buf, item, d2)",
                ]
                continue
            read += [" at = pos", " try:"]
            write.append(" try:")
            if nested:  # its OBJ (and MAP) two levels down: too deep, and it is read generically
                read.append(f"  if room < {3 + bool(nested.fields)}: raise OffPlan")
                write.append(f"  if room < 2 or type(item) is not {const(nested.cls)}: raise OffPlan")
            append = []
            for j, (constant, kind) in enumerate(leaves):
                read += [
                    f"  if not data.startswith({const(constant)}, pos): raise OffPlan",
                    f"  pos += {len(constant)}",
                ]
                if kind is None:
                    append.append(f"  buf += {const(constant)}")
                    continue
                read.append("  " + _READ_LEAF[kind].format(into=f"n{j}" if nested else f"v{i}"))
                pack = struct.Struct(f">{len(constant)}s{'q' if kind is int else 'I'}").pack
                write += [
                    f"  a{j} = item.{nested.fields[j][0]}" if nested else f"  a{j} = item",
                    f"  if type(a{j}) is not {kind.__name__}: raise OffPlan",
                    *[f"  a{j} = a{j}.encode('utf-8')"] * (kind is str),
                    f"  s{j} = {const(pack)}({const(constant)}, "
                    + (f"a{j})" if kind is int else f"len(a{j}))"),
                ]
                append.append(f"  buf += s{j}" + f"; buf += a{j}" * (kind is not int))
            if nested:
                read.append(build("  ", f"v{i}", nested, "n"))
            read += [" except OffPlan:", "  pos = at", *["  " + line for line in generic]]
            write += [
                " except struct_error:",  # off its declaration, or beyond int64 / u32
                f"  buf += {key_const}; codec._write(buf, item, d2)",
                " else:",
                *append,
            ]
        if not self.fields:
            head = const(self.head)
            read += [
                f" if not data.startswith({head}, pos): raise off_layout(plan, 0, pos)",
                f" pos += {len(self.head)}",
            ]
            write.append(f" buf += {head}")
        source = [
            "def read(codec, data, pos, end, depth):",
            " room = codec._max_depth - depth",  # levels left below *depth*
            f" if room < {2 if self.fields else 1}: raise CodecError("  # the OBJ, and its MAP
            "f'input nests deeper than max_depth={codec._max_depth}')",
            " d2 = depth + 2",
            *read,
            build(" ", "value", self, "v"),
            " return value, pos",
            "def write(codec, buf, value, depth):",
            " room = codec._max_depth - depth - 2",
            " if room < 0: raise CodecError("
            "f'value nests deeper than max_depth={codec._max_depth}')",
            " d2 = depth + 2",
            *write,
        ]
        exec("\n".join(source), scope)
        self.read, self.write = scope["read"], scope["write"]


#: Shared "no plans" default, so a primitive-only codec allocates nothing.
_NO_PLANS: Mapping[Any, ObjectPlan] = {}


class WireEncoder:
    """Encodes Python values into the wire format.

    Args:
        max_depth: Container nesting limit (:data:`MAX_DEPTH` by default);
            deeper values raise :class:`~repro.errors.CodecError`.
        plans: Live mapping ``class -> ObjectPlan``.  An instance of a class
            in it is written by its plan; any other value that is not a
            primitive raises :class:`~repro.errors.CodecError`.
    """

    def __init__(self, max_depth: int = MAX_DEPTH, plans: Mapping[Any, ObjectPlan] = _NO_PLANS) -> None:
        self._max_depth = max_depth
        self._plans = plans
        self._buf = bytearray()

    def encode(self, value: Any) -> bytes:
        """Encode *value* and return the wire bytes."""
        buf = self._buf
        del buf[:]  # reuse the allocation across frames
        self._write(buf, value)
        return bytes(buf)

    def encode_many(self, values: Any) -> bytes:
        """Encode an iterable of values as a concatenated stream.

        The stream has no outer container: each value is self-delimiting, so
        decoding with :meth:`WireDecoder.decode_many` recovers the sequence.
        Multi-message envelopes (one TCP frame carrying a whole batch) are
        framed this way — one length prefix for the frame, zero per-message
        framing overhead beyond the values themselves.
        """
        buf = self._buf
        del buf[:]
        write = self._write
        for value in values:
            write(buf, value)
        return bytes(buf)

    def encode_into(self, buf: bytearray, value: Any) -> int:
        """Append the encoding of *value* to *buf*; returns bytes written.

        This is the frame-fusion entry point: a transport can reserve its
        length-prefix bytes in *buf*, encode the body straight after them,
        and patch the prefix — header and body leave as one buffer, with no
        intermediate ``bytes`` copy.
        """
        start = len(buf)
        self._write(buf, value)
        return len(buf) - start

    def encode_many_into(self, buf: bytearray, values: Any) -> int:
        """Append a concatenated value stream to *buf*; returns bytes written."""
        start = len(buf)
        write = self._write
        for value in values:
            write(buf, value)
        return len(buf) - start

    # -- writer ------------------------------------------------------------

    def _write(self, buf: bytearray, value: Any, depth: int = 0) -> None:
        # A registered object — most top-level values and most items of a
        # sequence — skips the primitive chain below.
        plans = self._plans
        plan = plans.get(type(value))
        if plan is not None:
            plan.write(self, buf, value, depth)
            return
        # Iterative depth-first encode: the stack holds (value, depth)
        # pairs still to be emitted; container children are pushed in
        # reverse so they pop in document order.
        max_depth = self._max_depth
        stack: list[tuple[Any, int]] = [(value, depth)]
        pop = stack.pop
        push = stack.append
        while stack:
            value, depth = pop()
            if isinstance(value, dict):
                if len(value) > _U32_MAX:
                    raise CodecError(
                        f"map of {len(value)} entries exceeds the u32 count field"
                    )
                if depth >= max_depth:
                    raise CodecError(f"value nests deeper than max_depth={max_depth}")
                pos = len(buf)
                buf += _PAD5
                _TAG_U32.pack_into(buf, pos, _TAG_M, len(value))
                child_depth = depth + 1
                # A STR key with an int64 or a registered object — every
                # pair of a frame header — is written here, in place; the
                # first other pair goes on the stack with all behind it.
                items = iter(value.items())
                for key, item in items:
                    plan = plans.get(type(item))
                    if type(key) is str and (
                        plan is not None or type(item) is int and _INT64_MIN <= item <= _INT64_MAX
                    ):
                        raw = key.encode("utf-8")
                        if len(raw) <= _U32_MAX:
                            buf += _TAG_U32.pack(_TAG_S, len(raw))
                            buf += raw
                            if plan is None:
                                buf += _TAG_I64.pack(_TAG_I, item)
                            else:
                                plan.write(self, buf, item, child_depth)
                            continue
                    for key, item in reversed([(key, item), *items]):
                        push((item, child_depth))
                        push((key, child_depth))
                    break
            elif value is None:
                buf.append(_TAG_N)
            elif value is True:
                buf.append(_TAG_T)
            elif value is False:
                buf.append(_TAG_F)
            elif isinstance(value, int):
                if _INT64_MIN <= value <= _INT64_MAX:
                    pos = len(buf)
                    buf += _PAD9
                    _TAG_I64.pack_into(buf, pos, _TAG_I, value)
                else:
                    raw = value.to_bytes(
                        (value.bit_length() + 8) // 8, "big", signed=True
                    )
                    if len(raw) > _U32_MAX:
                        raise CodecError(
                            f"BIGINT of {len(raw)} bytes exceeds the u32 length field"
                        )
                    pos = len(buf)
                    buf += _PAD5
                    _TAG_U32.pack_into(buf, pos, _TAG_J, len(raw))
                    buf += raw
            elif isinstance(value, float):
                pos = len(buf)
                buf += _PAD9
                _TAG_F64.pack_into(buf, pos, _TAG_D, value)
            elif isinstance(value, str):
                raw = value.encode("utf-8")
                if len(raw) > _U32_MAX:
                    raise CodecError(
                        f"string of {len(raw)} utf-8 bytes exceeds the u32 length field"
                    )
                pos = len(buf)
                buf += _PAD5
                _TAG_U32.pack_into(buf, pos, _TAG_S, len(raw))
                buf += raw
            elif isinstance(value, (bytes, bytearray, memoryview)):
                if len(value) > _U32_MAX:
                    raise CodecError(
                        f"bytes of length {len(value)} exceed the u32 length field"
                    )
                pos = len(buf)
                buf += _PAD5
                _TAG_U32.pack_into(buf, pos, _TAG_B, len(value))
                buf += value
            elif isinstance(value, (list, tuple)):
                if len(value) > _U32_MAX:
                    raise CodecError(
                        f"list of {len(value)} items exceeds the u32 count field"
                    )
                if depth >= max_depth:
                    raise CodecError(f"value nests deeper than max_depth={max_depth}")
                pos = len(buf)
                buf += _PAD5
                _TAG_U32.pack_into(buf, pos, _TAG_L, len(value))
                child_depth = depth + 1
                for item in reversed(value):
                    push((item, child_depth))
            else:
                plan = plans.get(type(value))
                if plan is None:
                    raise CodecError(
                        f"cannot encode value of type {type(value).__name__}: "
                        "not a primitive or a registered message"
                    )
                plan.write(self, buf, value, depth)

    def _write_sequence(self, buf: bytearray, items: Any, depth: int) -> None:
        """Append the LIST encoding of an exact ``list``/``tuple``."""
        if depth >= self._max_depth:
            raise CodecError(f"value nests deeper than max_depth={self._max_depth}")
        try:
            buf += _TAG_U32.pack(_TAG_L, len(items))
        except struct.error:
            raise CodecError(
                f"list of {len(items)} items exceeds the u32 count field"
            ) from None
        plans = self._plans
        child_depth = depth + 1
        kind = plan = None
        for item in items:
            if type(item) is not kind:  # a run of one planned class: its writer, directly
                kind = type(item)
                plan = plans.get(kind)
            if plan is not None:
                plan.write(self, buf, item, child_depth)
            else:
                self._write(buf, item, child_depth)


# Decoder frame kinds (the explicit stack replacing recursion).
_F_LIST = 0
_F_MAP = 1


class WireDecoder:
    """Decodes wire-format bytes back into Python values.

    Args:
        max_depth: Container nesting limit (:data:`MAX_DEPTH` by default);
            deeper input raises :class:`~repro.errors.CodecError`.
        plans: Live mapping ``utf-8 type-name bytes -> ObjectPlan``.  An OBJ
            is read by the plan of its type name and must be in the one
            layout that plan writes; an OBJ with any other name, or in any
            other layout (extra, missing or reordered fields), raises
            :class:`~repro.errors.CodecError`.
    """

    def __init__(self, max_depth: int = MAX_DEPTH, plans: Mapping[Any, ObjectPlan] = _NO_PLANS) -> None:
        self._max_depth = max_depth
        self._plans = plans

    def decode(self, data: Any) -> Any:
        """Decode a single value from *data*; trailing bytes are an error.

        Accepts any bytes-like object.  ``bytes`` is read in place — only
        STR and BYTES leaves are materialized; any other buffer
        (``bytearray``, ``memoryview``) is copied once first, which costs
        less than slicing leaves out of a ``memoryview`` one by one.
        """
        data = _as_bytes(data)
        end = len(data)
        value, pos = self._read(data, 0, end)
        if pos != end:
            raise CodecError(f"trailing garbage after value: {end - pos} bytes")
        return value

    def decode_many(self, data: Any) -> list[Any]:
        """Decode a concatenated stream of values (see ``encode_many``).

        Values are self-delimiting, so the decoder reads until the buffer is
        exhausted; a truncated final value raises
        :class:`~repro.errors.CodecError` like any other short read.
        """
        data = _as_bytes(data)
        end = len(data)
        values: list[Any] = []
        pos = 0
        read = self._read
        while pos < end:
            value, pos = read(data, pos, end)
            values.append(value)
        return values

    # -- reader ------------------------------------------------------------

    def _read(self, data: bytes, pos: int, end: int, depth: int = 0) -> tuple[Any, int]:
        """Read one value starting at *pos*; returns ``(value, new_pos)``.

        Iterative: container frames live on an explicit stack.  A LIST frame
        is ``[kind, items, remaining]``; a MAP frame is ``[kind, dict,
        remaining, key, have_key]`` (entries are inserted as their pair
        completes, so an unhashable key fails right where it decodes).  An
        OBJ is read whole by its plan, which comes back here only for a
        field value it does not code in place.

        *depth* is how many containers already enclose the value.
        """
        max_depth = self._max_depth
        limit = max_depth - depth  # frames this call may stack
        plans = self._plans
        stack: list[list[Any]] = []
        while True:
            # ---- read exactly one leaf, or open a container frame -------
            if pos >= end:
                raise CodecError("truncated wire data")
            tag = data[pos]
            pos += 1
            have_value = True
            value: Any = None
            if tag == _TAG_M:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                count = _U32.unpack_from(data, pos)[0]
                pos += 4
                if count > (end - pos) // 2:
                    raise CodecError(
                        f"declared count {count} exceeds the {end - pos} bytes remaining"
                    )
                value = {}
                if count:
                    if len(stack) >= limit:
                        raise CodecError(
                            f"input nests deeper than max_depth={max_depth}"
                        )
                    # A STR key with an INT or a planned OBJ — every pair of
                    # a frame header — is read here, in place; the first
                    # other pair (or one that does not fit) is left to the
                    # frame below, which reads it and the rest as ever.
                    here = depth + len(stack) + 1  # the depth of the values
                    while count and pos + 5 <= end and data[pos] == _TAG_S:
                        at = pos + 5 + _U32.unpack_from(data, pos + 1)[0]  # the value's tag
                        if at >= end:
                            break
                        kind = data[at]
                        if kind == _TAG_I:
                            if at + 9 > end:
                                break
                        elif kind != _TAG_O or (plan := self._plan_at(data, at + 1, end)) is None:
                            break
                        try:
                            key = data[pos + 5 : at].decode("utf-8")
                        except UnicodeDecodeError:
                            break
                        if kind == _TAG_I:
                            value[key] = _I64.unpack_from(data, at + 1)[0]
                            pos = at + 9
                        else:
                            value[key], pos = plan.read(self, data, at, end, here)
                        count -= 1
                    if count:
                        stack.append([_F_MAP, value, count, None, False])
                        have_value = False
            elif tag == _TAG_I:
                if pos + 8 > end:
                    raise CodecError("truncated wire data")
                value = _I64.unpack_from(data, pos)[0]
                pos += 8
            elif tag == _TAG_S:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                n = _U32.unpack_from(data, pos)[0]
                pos += 4
                if n > end - pos:
                    raise CodecError(
                        f"declared length {n} exceeds the {end - pos} bytes remaining"
                    )
                try:
                    value = data[pos : pos + n].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CodecError(f"invalid utf-8 in string: {exc}") from exc
                pos += n
            elif tag == _TAG_B:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                n = _U32.unpack_from(data, pos)[0]
                pos += 4
                if n > end - pos:
                    raise CodecError(
                        f"declared length {n} exceeds the {end - pos} bytes remaining"
                    )
                value = data[pos : pos + n]
                pos += n
            elif tag == _TAG_O:
                # The plan checks the levels the OBJ needs, as it reads it.
                plan = self._plan_at(data, pos, end)
                if plan is None:
                    raise CodecError(f"object at offset {pos - 1} has no registered type name")
                value, pos = plan.read(self, data, pos - 1, end, depth + len(stack))
            elif tag == _TAG_N:
                value = None
            elif tag == _TAG_T:
                value = True
            elif tag == _TAG_F:
                value = False
            elif tag == _TAG_D:
                if pos + 8 > end:
                    raise CodecError("truncated wire data")
                value = _F64.unpack_from(data, pos)[0]
                pos += 8
            elif tag == _TAG_J:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                n = _U32.unpack_from(data, pos)[0]
                pos += 4
                if n > end - pos:
                    raise CodecError(
                        f"declared length {n} exceeds the {end - pos} bytes remaining"
                    )
                value = int.from_bytes(data[pos : pos + n], "big", signed=True)
                pos += n
            elif tag == _TAG_L:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                count = _U32.unpack_from(data, pos)[0]
                pos += 4
                # Each element costs at least its one tag byte: a count the
                # remaining buffer cannot possibly satisfy fails here, fast,
                # instead of looping (or preallocating) towards a huge list.
                if count > end - pos:
                    raise CodecError(
                        f"declared count {count} exceeds the {end - pos} bytes remaining"
                    )
                if count == 0:
                    value = []
                else:
                    if len(stack) >= limit:
                        raise CodecError(
                            f"input nests deeper than max_depth={max_depth}"
                        )
                    value = []
                    here = depth + len(stack) + 1  # the depth of the elements
                    if plans and data[pos] == _TAG_O:
                        # Elements that begin with one planned class's head
                        # are read in place by its reader; the first that
                        # does not leaves the rest to the loop below.
                        plan = self._plan_at(data, pos + 1, end)
                        while count and plan is not None and data.startswith(plan.head, pos):
                            item, pos = plan.read(self, data, pos, end, here)
                            value.append(item)
                            count -= 1
                    if count:
                        stack.append([_F_LIST, value, count])
                        have_value = False
            else:
                raise CodecError(f"unknown wire tag {bytes((tag,))!r}")

            if not have_value:
                continue  # a container frame was opened; read its first child

            # ---- feed the completed value into the enclosing frames -----
            while True:
                if not stack:
                    return value, pos
                frame = stack[-1]
                kind = frame[0]
                if kind == _F_LIST:
                    items = frame[1]
                    items.append(value)
                    frame[2] -= 1
                    if frame[2]:
                        break  # more elements to read
                    stack.pop()
                    value = items
                else:  # _F_MAP
                    if not frame[4]:
                        frame[3] = value
                        frame[4] = True
                        break  # the key's value is next
                    try:
                        frame[1][frame[3]] = value
                    except TypeError as exc:
                        raise CodecError(
                            f"unhashable map key of type {type(frame[3]).__name__}"
                        ) from exc
                    frame[3] = None
                    frame[4] = False
                    frame[2] -= 1
                    if frame[2]:
                        break  # more pairs to read
                    stack.pop()
                    value = frame[1]

    def _plan_at(self, data: bytes, pos: int, end: int) -> Optional[ObjectPlan]:
        """The plan of the OBJ whose type name should be the STR at *pos*."""
        name_at = pos + 5
        if name_at > end or data[pos] != _TAG_S:
            return None
        name_end = name_at + _U32.unpack_from(data, pos + 1)[0]
        return self._plans.get(data[name_at:name_end]) if name_end <= end else None


def _as_bytes(data: Any) -> bytes:
    """*data* itself if it is ``bytes``, else one copy of the buffer."""
    return data if type(data) is bytes else bytes(memoryview(data))


def encode(value: Any) -> bytes:
    """Encode a value containing only primitive types."""
    return WireEncoder().encode(value)


def decode(data: Any) -> Any:
    """Decode a value containing only primitive types."""
    return WireDecoder().decode(data)


def encode_many(values: Any) -> bytes:
    """Encode an iterable of primitive-typed values as one stream."""
    return WireEncoder().encode_many(values)


def decode_many(data: Any) -> list[Any]:
    """Decode a stream of concatenated primitive-typed values."""
    return WireDecoder().decode_many(data)


__all__ = [
    "MAX_DEPTH",
    "ObjectPlan",
    "WireEncoder",
    "WireDecoder",
    "encode",
    "decode",
    "encode_many",
    "decode_many",
    "declared_as_tuple",
]
