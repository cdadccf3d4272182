"""A compact binary codec: tagged primitives, positional messages.

The paper serializes messages with Google Protocol Buffers, which put field
numbers on the wire, not field names.  This reproduction ships a small
dependency-free codec in the same spirit: a primitive value carries a one-byte
tag, and a *registered* dataclass (see :mod:`repro.net.message`) is a small
type id followed by its fields in declared order, each in the fixed form its
declaration gives it.  The asyncio TCP transport is its one user.

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
    OBJ     := 'O' u16 type-id, body(class)

    body(C)             := form(field)* over C's fields, in declared order
    form(int)           := int64
    form(str)           := u32 length, utf-8 bytes
    form(bytes)         := u32 length, raw bytes
    form(registered C)  := body(C)
    form(tuple[X, ...]) := u32 count, form(X)*
    form(anything else) := value            (Any, a union, Optional, ...)

A type id is the position of the class's registered name among all the
registry's names in sorted order (:class:`~repro.net.message.MessageRegistry`),
so it depends on the registry's table and never on import order.

Implementation notes (the wire hot path):

* Containers are coded **iteratively** (an explicit work stack), so nesting
  depth is a checked limit (:data:`MAX_DEPTH`) raising
  :class:`~repro.errors.CodecError` — never a Python ``RecursionError`` a
  malicious peer could trigger remotely.  A LIST or MAP, an object, an
  inlined class body and a non-empty fixed-form tuple each take one level;
  what they hold sits one level below them.
* Registered dataclasses are coded only by **generated straight-line code**
  (:class:`ObjectPlan`; a class that cannot be planned cannot be registered;
  its reader and writer are generated when the class is first coded).  The
  fixed-width parts between two variable-length ones — int64 fields, the
  u32 length of the next ``str`` / ``bytes``, across inlined classes — are
  one ``struct`` call; a field off its declaration (another type, an int
  beyond int64) is a ``CodecError`` at encode.  The reader builds a slotted
  class with a dataclass-generated ``__init__`` and no ``__post_init__``
  through ``object.__new__`` and its slot descriptors — the stores the
  frozen ``__init__`` makes, at half the cost — and any other class as
  ``cls(*values)``.
* A MAP is coded pair by pair in place while its pairs are a STR key with
  an int64 INT or an OBJ — the shape of a transport frame's header — with
  the OBJ going straight to its plan; the first pair of another shape and
  every pair after it go through the work stack.
* The encoder appends into one reusable ``bytearray``; ``encode_into`` /
  ``encode_many_into`` expose the same path to callers (the TCP transport)
  that fuse their own framing header into the same buffer.
* The decoder reads ``bytes`` in place and only materializes the STR/BYTES
  leaves.  (Another buffer type is copied to ``bytes`` once: slicing leaves
  out of a ``memoryview`` one by one costs more than the copy.)  Declared
  lengths and counts are validated against the remaining buffer *before*
  any allocation, so a corrupted length field fails fast.
* Every malformed-input failure mode — truncation, unknown tags or type
  ids, lengths beyond the buffer or beyond u32, unhashable MAP keys,
  invalid UTF-8, and constructors choking on bad fields — surfaces as
  ``CodecError``, the documented contract that lets transport readers treat
  any decode failure as a protocol error instead of dying on a stray
  ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import struct
import types
import typing
from typing import Any, Callable, Mapping

from ..errors import CodecError

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Maximum container nesting the codec will encode or decode.  Deeper
#: payloads raise :class:`~repro.errors.CodecError`; protocol messages are a
#: handful of levels deep, so the limit only ever triggers on hostile or
#: corrupted input.
MAX_DEPTH = 64

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

# Fused tag+payload packers: one pack writes the tag byte and the payload.
_TAG_I64 = struct.Struct(">Bq")   # 'I' int64
_TAG_F64 = struct.Struct(">Bd")   # 'D' float64
_TAG_U32 = struct.Struct(">BI")   # any tag followed by a u32 length/count
_TAG_U16 = struct.Struct(">BH")   # 'O' type id

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

    A field whose declaration has no fixed form (``Optional[tuple[...]]``,
    say) is a generic value, and the generic grammar does not distinguish
    tuples from lists; such fields declared as tuples are converted back on
    decode so equality round-trips.  Only the annotation's outermost type
    counts: ``tuple[...]`` / ``Tuple[...]``, alone or as every non-``None``
    member of an ``Optional`` / union.
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


# A field's form (see the grammar): ``int``, ``str`` or ``bytes``; the
# ObjectPlan of an inlined class; ``(tuple, element form)``; or ``None``, a
# generic value.
Form = Any


def _form(hint: Any, plans: Mapping[Any, "ObjectPlan"]) -> Form:
    """The form of a field declared as *hint*, given the registered *plans*."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return (tuple, _form(args[0], plans)) if len(args) == 2 and args[1] is Ellipsis else None
    if hint is int or hint is str or hint is bytes:
        return hint
    return plans.get(hint) if isinstance(hint, type) else None


def _form_text(form: Form) -> str:
    if form is None:
        return "any"
    if type(form) is tuple:
        return f"tuple[{_form_text(form[1])}]"
    return form.name if isinstance(form, ObjectPlan) else form.__name__


def _min_size(form: Form, seen: tuple = ()) -> int:
    """Fewest bytes a value of *form* can take (a bound on hostile counts)."""
    if form is int:
        return 8
    if form is None:
        return 1  # a tag
    if not isinstance(form, ObjectPlan):
        return 4  # a length or a count
    if form in seen:
        return 0
    return sum(_min_size(f, seen + (form,)) for f in form.forms())


def _slot_setters(cls: type) -> list[Callable[[Any, Any], None]] | None:
    """The slot stores ``cls.__init__`` makes, if building by them is the same build.

    Only for a class whose ``__init__`` is the one ``dataclasses`` generated
    (compiled from source text: its code has no file) with no
    ``__post_init__``, each field a slot of its own.
    """
    init = getattr(cls.__init__, "__code__", None)
    if init is None or init.co_filename != "<string>" or hasattr(cls, "__post_init__"):
        return None
    setters = []
    for field in dataclasses.fields(cls):
        slot = getattr(cls, field.name, None)
        if type(slot) is not types.MemberDescriptorType:
            return None
        setters.append(slot.__set__)
    return setters


def _off_declaration(where: str, form: Form, value: Any) -> CodecError:
    return CodecError(
        f"{where} is declared {_form_text(form)}, got a value of type "
        f"{type(value).__name__}: a message field must hold what its class declares"
    )


def _build(cls: type, *values: Any) -> Any:
    """``cls(*values)``, a failure of which is a :class:`CodecError`."""
    try:
        return cls(*values)
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"cannot build {cls.__qualname__!r} from its decoded fields: {exc}") from exc


_DEEPER = "raise CodecError(f'{} nests deeper than max_depth={{codec._max_depth}}')"


class _Generator:
    """Generates a plan's reader and writer in one walk over its layout.

    The two walk the same fields in the same order, so they share the
    points where the fixed-width parts pile up in ``fixed`` and leave as one
    ``unpack_from`` / ``pack`` (:meth:`flush`): a variable-length part, a
    loop, the end.  The reader's objects wait in ``built`` until the fields
    they are built from are read.  ``need`` is the levels the top object's
    inlined bodies take below its depth (one for the object itself).
    """

    def __init__(self, scope: dict[str, Any]) -> None:
        self.scope = scope
        self.read: list[str] = []
        self.write: list[str] = []
        self.fixed: list[tuple[str, str, str]] = []  # (struct code, read into, write from)
        self.built: list[str] = []
        self.names = 0
        self.need = 1

    def const(self, value: Any) -> str:
        name = f"k{len(self.scope)}"
        self.scope[name] = value
        return name

    def var(self, prefix: str) -> str:
        self.names += 1
        return f"{prefix}{self.names}"

    def flush(self, pad: str) -> None:
        if self.fixed:
            layout = struct.Struct(">" + "".join(code for code, _, _ in self.fixed))
            targets = "".join(f"{target}, " for _, target, _ in self.fixed)
            self.read.append(f"{pad}{targets}= {self.const(layout.unpack_from)}(data, pos); pos += {layout.size}")
            self.write.append(f"{pad}buf += {self.const(layout.pack)}({', '.join(v for _, _, v in self.fixed)})")
            self.fixed = []
        self.read += self.built
        self.built = []

    def body(self, plan: "ObjectPlan", source: str, level: int, pad: str, stack: tuple) -> str:
        """Code the body of a *plan* object *level* levels down, written from
        variable *source*; returns the variable it is read into."""
        stack += (plan,)
        values = []
        for (name, as_tuple), form in zip(plan.fields, plan.forms()):
            value = self.var("x")
            self.write.append(f"{pad}{value} = {source}.{name}")
            values.append(self.field(form, value, level + 1, pad, stack, f"{plan.name}.{name}", as_tuple))
        target, cls, setters = self.var("o"), self.const(plan.cls), _slot_setters(plan.cls)
        if setters is None:
            self.built.append(f"{pad}{target} = build({', '.join([cls, *values])})")
        else:
            stores = "".join(f"; {self.const(setter)}({target}, {v})" for setter, v in zip(setters, values))
            self.built.append(f"{pad}{target} = new({cls}){stores}")
        return target

    def field(
        self, form: Form, value: str, level: int, pad: str, stack: tuple, where: str, as_tuple: bool = False
    ) -> str:
        """Code one value of *form* *level* levels down, written from variable
        *value*; returns the variable it is read into.  *where* names it."""
        target = self.var("v")
        if form is None:
            self.flush(pad)
            self.read.append(f"{pad}{target}, pos = codec._read(data, pos, end, depth + {level})")
            self.read += [f"{pad}if type({target}) is list: {target} = tuple({target})"] * as_tuple
            self.write.append(f"{pad}codec._write(buf, {value}, depth + {level})")
            return target
        plan = form if isinstance(form, ObjectPlan) else None
        declared = self.const(plan.cls) if plan else "tuple" if type(form) is tuple else form.__name__
        self.write.append(
            f"{pad}if type({value}) is not {declared}: raise off({self.const(where)}, {self.const(form)}, {value})"
        )
        if form is int:
            self.fixed.append(("q", target, value))
        elif form is str or form is bytes:
            length = self.var("n")
            self.write += [f"{pad}{value} = {value}.encode('utf-8')"] * (form is str)
            self.fixed.append(("I", length, f"len({value})"))
            self.flush(pad)
            self.read += [
                f"{pad}if {length} > end - pos: raise CodecError("
                f"f'declared length {{{length}}} exceeds the {{end - pos}} bytes remaining')",
                f"{pad}{target} = data[pos:pos + {length}]{'.decode()' * (form is str)}; pos += {length}",
            ]
            self.write.append(f"{pad}buf += {value}")
        elif plan and plan not in stack:
            self.need = max(self.need, level + 1)
            return self.body(plan, value, level, pad, stack)
        elif plan:  # a class inside itself: one call of its own code per level
            self.flush(pad)
            self.read.append(f"{pad}{target}, pos = {self.const(plan)}.read(codec, data, pos, end, depth + {level})")
            self.write.append(f"{pad}{self.const(plan)}.write(codec, buf, {value}, depth + {level})")
        else:  # (tuple, element form): a count, then the elements
            count, item = self.var("n"), self.var("e")
            self.fixed.append(("I", count, f"len({value})"))
            self.flush(pad)
            read, write, need = self.read, self.write, self.need
            self.read, self.write, self.need = [], [], level + 1
            element = self.field(form[1], item, level + 1, pad + " ", stack, where + "[]")
            self.flush(pad + " ")
            (loop_read, self.read), (loop_write, self.write) = (self.read, read), (self.write, write)
            need, self.need = self.need, need
            self.read += [
                f"{pad}if {count} > (end - pos) // {max(1, _min_size(form[1]))}: raise CodecError("
                f"f'declared count {{{count}}} exceeds the {{end - pos}} bytes remaining')",
                f"{pad}if {count} and room < {need}: " + _DEEPER.format("input"),
                f"{pad}{target} = []",
                f"{pad}for _ in range({count}):",
                *loop_read,
                f"{pad} {target}.append({element})",
                f"{pad}{target} = tuple({target})",
            ]
            self.write += [
                f"{pad}if {value} and room < {need}: " + _DEEPER.format("value"),
                f"{pad}for {item} in {value}:",
                *loop_write,
            ]
        return target


class ObjectPlan:
    """Everything the codec needs to know about one registered dataclass.

    Compiled once, at registration: the class, its registered name, its
    fields in declared order (with whether each is declared as a tuple), and
    ``head`` — ``'O' u16(type id)``, set by the registry (:meth:`number`).

    ``read(decoder, data, pos, end, depth) -> (value, pos)``, called with
    *pos* just past the head (at the body), and ``write(encoder, buf, value,
    depth)``, which writes the body, are the class's layout as straight-line
    code, generated the first time either is called (:meth:`_generate`).
    *depth* is how many containers enclose the object.
    """

    __slots__ = ("cls", "name", "fields", "head", "read", "write", "_plans", "_forms")

    def __init__(self, cls: type, name: str) -> None:
        self.cls = cls
        self.name = name
        #: ``(field name, declared as tuple)`` in declared order
        self.fields = tuple((f.name, declared_as_tuple(f)) for f in dataclasses.fields(cls))
        self.head = b""
        self.reset({})

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

    def number(self, type_id: int) -> None:
        """Give the class its type id (the head its OBJ starts with)."""
        self.head = _TAG_U16.pack(_TAG_O, type_id)

    def reset(self, plans: Mapping[Any, "ObjectPlan"]) -> None:
        """Forget forms and generated code; *plans* (class -> plan) is the registry now.

        The next call of ``read`` or ``write`` generates both.
        """
        self._plans, self._forms = plans, None

        def first(attr: str) -> Callable[..., Any]:
            def stub(codec: Any, *args: Any) -> Any:
                self._generate()
                return getattr(self, attr)(codec, *args)

            return stub

        self.read, self.write = first("read"), first("write")

    def forms(self) -> tuple[Form, ...]:
        """Each field's form, in declared order, from its declaration and the registry."""
        if self._forms is None:
            hints = _type_hints(self.cls)
            self._forms = tuple(_form(hints.get(name), self._plans) for name, _ in self.fields)
        return self._forms

    def signature(self) -> str:
        """``name(field:form, ...)``: the class's layout, as the registry digest covers it."""
        fields = ",".join(f"{name}:{_form_text(form)}" for (name, _), form in zip(self.fields, self.forms()))
        return f"{self.name}({fields})"

    def _generate(self) -> None:
        """Build ``read`` and ``write`` from this plan, as ``dataclasses`` builds ``__init__``.

        Classes a field declares are inlined (a class inside itself calls its
        own generated code, one level per call).  The levels the inlined
        bodies take, known in advance, are checked once on entry; a
        non-empty tuple's levels are checked before its loop.  Only offsets,
        variable and field names are written into the source; classes,
        setters and packers enter through the scope.
        """
        scope: dict[str, Any] = {
            "CodecError": CodecError, "struct_error": struct.error, "new": object.__new__,
            "build": _build, "off": _off_declaration,
        }  # fmt: skip
        code = _Generator(scope)
        result = code.body(self, "value", 0, "  ", ())
        code.flush("  ")
        source = [
            "def read(codec, data, pos, end, depth):",
            " room = codec._max_depth - depth",  # levels left from *depth* down
            f" if room < {code.need}: " + _DEEPER.format("input"),
            " try:",
            *code.read,
            " except struct_error: raise CodecError('truncated wire data') from None",
            " except UnicodeDecodeError as exc: raise CodecError(f'invalid utf-8 in string: {exc}') from None",
            f" return {result}, pos",
            "def write(codec, buf, value, depth):",
            " room = codec._max_depth - depth",
            f" if room < {code.need}: " + _DEEPER.format("value"),
            " try:",
            *code.write,
            "  pass",
            f" except struct_error as exc: raise CodecError(f'cannot encode a {{{code.const(self.name)}!r}}: "
            "an int beyond int64, or a length or count beyond u32 ({exc})') from None",
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
        """Append a concatenated value stream to *buf*; returns bytes written.

        The stream has no outer container: each value is self-delimiting, so
        decoding with :meth:`WireDecoder.decode_many` recovers the sequence.
        Multi-message envelopes (one TCP frame carrying a whole batch) are
        framed this way — one length prefix for the frame, zero per-message
        framing overhead beyond the values themselves.
        """
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
            buf += plan.head
            plan.write(self, buf, value, depth)
            return
        # Iterative depth-first encode: the stack holds (value, depth)
        # pairs still to be emitted; container children are pushed in
        # reverse so they pop in document order.  A length or count beyond
        # u32 fails the ``pack`` that writes it.
        max_depth = self._max_depth
        stack: list[tuple[Any, int]] = [(value, depth)]
        pop = stack.pop
        push = stack.append
        try:
            while stack:
                value, depth = pop()
                if isinstance(value, (dict, list, tuple)) and depth >= max_depth:
                    raise CodecError(f"value nests deeper than max_depth={max_depth}")
                if isinstance(value, dict):
                    buf += _TAG_U32.pack(_TAG_M, len(value))
                    # A STR key with an int64 or a registered object — every
                    # pair of a frame header — is written here, in place; the
                    # first other pair goes on the stack with all behind it.
                    items = iter(value.items())
                    for key, item in items:
                        plan = plans.get(type(item))
                        if type(key) is not str or plan is None and not (
                            type(item) is int and _INT64_MIN <= item <= _INT64_MAX
                        ):
                            for key, item in reversed([(key, item), *items]):
                                push((item, depth + 1))
                                push((key, depth + 1))
                            break
                        raw = key.encode("utf-8")
                        buf += _TAG_U32.pack(_TAG_S, len(raw))
                        buf += raw
                        if plan is None:
                            buf += _TAG_I64.pack(_TAG_I, item)
                        else:
                            buf += plan.head
                            plan.write(self, buf, item, depth + 1)
                elif value is None:
                    buf.append(_TAG_N)
                elif value is True:
                    buf.append(_TAG_T)
                elif value is False:
                    buf.append(_TAG_F)
                elif isinstance(value, int):
                    if _INT64_MIN <= value <= _INT64_MAX:
                        buf += _TAG_I64.pack(_TAG_I, value)
                    else:
                        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
                        buf += _TAG_U32.pack(_TAG_J, len(raw))
                        buf += raw
                elif isinstance(value, float):
                    buf += _TAG_F64.pack(_TAG_D, value)
                elif isinstance(value, str):
                    raw = value.encode("utf-8")
                    buf += _TAG_U32.pack(_TAG_S, len(raw))
                    buf += raw
                elif isinstance(value, (bytes, bytearray, memoryview)):
                    buf += _TAG_U32.pack(_TAG_B, len(value))
                    buf += value
                elif isinstance(value, (list, tuple)):
                    buf += _TAG_U32.pack(_TAG_L, len(value))
                    for item in reversed(value):
                        push((item, depth + 1))
                else:
                    plan = plans.get(type(value))
                    if plan is None:
                        raise CodecError(
                            f"cannot encode value of type {type(value).__name__}: "
                            "not a primitive or a registered message"
                        )
                    buf += plan.head
                    plan.write(self, buf, value, depth)
        except struct.error as exc:
            raise CodecError(f"a length or count beyond its u32 field: {exc}") from None


# Decoder frame kinds (the explicit stack replacing recursion).
_F_LIST = 0
_F_MAP = 1


class WireDecoder:
    """Decodes wire-format bytes back into Python values.

    Args:
        max_depth: Container nesting limit (:data:`MAX_DEPTH` by default);
            deeper input raises :class:`~repro.errors.CodecError`.
        plans: Live mapping ``type id -> ObjectPlan``.  An OBJ is read by
            the plan of its type id; an OBJ with any other id raises
            :class:`~repro.errors.CodecError`.
    """

    def __init__(self, max_depth: int = MAX_DEPTH, plans: Mapping[int, ObjectPlan] = _NO_PLANS) -> None:
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
        """Decode a concatenated stream of values (see ``encode_many_into``).

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

    def _plan(self, data: bytes, pos: int) -> ObjectPlan:
        """The plan of the OBJ whose head starts at *pos*."""
        type_id = _U16.unpack_from(data, pos + 1)[0]
        plan = self._plans.get(type_id)
        if plan is None:
            raise CodecError(f"object at offset {pos} has no registered type name (type id {type_id})")
        return plan

    def _read(self, data: bytes, pos: int, end: int, depth: int = 0) -> tuple[Any, int]:
        """Read one value starting at *pos*; returns ``(value, new_pos)``.

        *end* is ``len(data)``: a fixed-width read past it fails its
        ``unpack_from``, which is a truncation.  Iterative: container frames
        live on an explicit stack.  A LIST frame is ``[kind, items,
        remaining]``; a MAP frame is ``[kind, dict, remaining, key,
        have_key]`` (entries are inserted as their pair completes, so an
        unhashable key fails right where it decodes).  An OBJ is read whole
        by its plan, which comes back here only for a field with no fixed
        form.

        *depth* is how many containers already enclose the value.
        """
        if pos + 3 <= end and data[pos] == _TAG_O:  # an object: its plan reads it whole
            return self._plan(data, pos).read(self, data, pos + 3, end, depth)
        max_depth = self._max_depth
        limit = max_depth - depth  # frames this call may stack
        stack: list[list[Any]] = []
        try:
            while True:
                # ---- read exactly one leaf, or open a container frame -------
                if pos >= end:
                    raise CodecError("truncated wire data")
                tag = data[pos]
                pos += 1
                have_value = True
                value: Any = None
                if tag == _TAG_O:
                    value, pos = self._plan(data, pos - 1).read(self, data, pos + 2, end, depth + len(stack))
                elif tag == _TAG_M or tag == _TAG_L:
                    count = _U32.unpack_from(data, pos)[0]
                    pos += 4
                    # Each element costs at least its one tag byte (a pair,
                    # two): a count the remaining buffer cannot satisfy fails
                    # here, fast, instead of looping towards a huge container.
                    if count > (end - pos) // (2 if tag == _TAG_M else 1):
                        raise CodecError(f"declared count {count} exceeds the {end - pos} bytes remaining")
                    value = {} if tag == _TAG_M else []
                    if count and len(stack) >= limit:
                        raise CodecError(f"input nests deeper than max_depth={max_depth}")
                    # A STR key with an INT or an OBJ — every pair of a frame
                    # header — is read here, in place; the first other pair
                    # (or one that does not fit) is left to the frame below,
                    # which reads it and the rest as ever.
                    here = depth + len(stack) + 1  # the depth of the values
                    while tag == _TAG_M and count and pos + 5 <= end and data[pos] == _TAG_S:
                        at = pos + 5 + _U32.unpack_from(data, pos + 1)[0]  # the value's tag
                        if at >= end or data[at] != _TAG_I and (data[at] != _TAG_O or at + 3 > end):
                            break
                        try:
                            key = data[pos + 5 : at].decode("utf-8")
                        except UnicodeDecodeError:
                            break
                        if data[at] == _TAG_I:
                            value[key] = _I64.unpack_from(data, at + 1)[0]
                            pos = at + 9
                        else:
                            value[key], pos = self._plan(data, at).read(self, data, at + 3, end, here)
                        count -= 1
                    if count:
                        stack.append([_F_MAP, value, count, None, False] if tag == _TAG_M else [_F_LIST, value, count])
                        have_value = False
                elif tag == _TAG_I:
                    value = _I64.unpack_from(data, pos)[0]
                    pos += 8
                elif tag == _TAG_S or tag == _TAG_B or tag == _TAG_J:
                    n = _U32.unpack_from(data, pos)[0]
                    pos += 4
                    if n > end - pos:
                        raise CodecError(f"declared length {n} exceeds the {end - pos} bytes remaining")
                    value = data[pos : pos + n]
                    pos += n
                    if tag == _TAG_S:
                        value = value.decode("utf-8")
                    elif tag == _TAG_J:
                        value = int.from_bytes(value, "big", signed=True)
                elif tag == _TAG_N:
                    value = None
                elif tag == _TAG_T:
                    value = True
                elif tag == _TAG_F:
                    value = False
                elif tag == _TAG_D:
                    value = _F64.unpack_from(data, pos)[0]
                    pos += 8
                else:
                    raise CodecError(f"unknown wire tag {bytes((tag,))!r}")

                if not have_value:
                    continue  # a container frame was opened; read its first child

                # ---- feed the completed value into the enclosing frames -----
                while True:
                    if not stack:
                        return value, pos
                    frame = stack[-1]
                    if frame[0] == _F_LIST:
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
                            raise CodecError(f"unhashable map key of type {type(frame[3]).__name__}") from exc
                        frame[3] = None
                        frame[4] = False
                        frame[2] -= 1
                        if frame[2]:
                            break  # more pairs to read
                        stack.pop()
                        value = frame[1]
        except struct.error:
            raise CodecError("truncated wire data") from None
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string: {exc}") from None


def _as_bytes(data: Any) -> bytes:
    """*data* itself if it is ``bytes``, else one copy of the buffer."""
    return data if type(data) is bytes else bytes(memoryview(data))


def encode(value: Any) -> bytes:
    """Encode a value containing only primitive types."""
    return WireEncoder().encode(value)


def decode(data: Any) -> Any:
    """Decode a value containing only primitive types."""
    return WireDecoder().decode(data)


__all__ = [
    "MAX_DEPTH",
    "ObjectPlan",
    "WireEncoder",
    "WireDecoder",
    "encode",
    "decode",
    "declared_as_tuple",
]
