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
* Registered dataclasses are coded from **compiled plans**
  (:class:`ObjectPlan`, one per class, built when the class is registered):
  everything about an OBJ that is constant per class — its head
  ``'O' STR(type-name) 'M' u32(n)`` and each ``STR(field-name)`` key — is
  bytes made once.  Encoding appends them around the field values; decoding
  finds the plan by the raw type-name bytes, compares head and keys against
  the input in place and calls ``cls(*values)``.  The plan routes recurse,
  but only from one OBJ into a value nested in it, each OBJ costing two
  levels of the same checked ``max_depth``.  The bytes are those of the
  reflective object-hook route, which remains for classes without a plan
  and for input that is not laid out as its plan expects (unknown, missing
  or reordered fields) — what decodes, and to what, does not depend on the
  route.
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
  beyond the buffer or beyond u32, unhashable MAP keys, invalid UTF-8, and
  object hooks or constructors choking on bad fields — surfaces as
  ``CodecError``, the documented contract that lets transport readers treat
  any decode failure as a protocol error instead of dying on a stray
  ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import inspect
import struct
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
    as tuples are converted back on decode so equality round-trips.
    """
    type_repr = str(field.type)
    return "tuple" in type_repr or "Tuple" in type_repr


class ObjectPlan:
    """Everything the codec needs to know about one registered dataclass.

    Compiled once, at registration, from what is constant per class: the
    OBJ head ``'O' STR(type-name) 'M' u32(field-count)`` and one
    ``STR(field-name)`` key per field as ready-made bytes, the field names
    in declared order, and which fields are declared as tuples.  Encoding
    an instance appends those constants around the field values; decoding
    compares them against the input in place and calls ``cls(*values)``.
    """

    __slots__ = ("cls", "name", "head", "fields")

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

    @classmethod
    def compile(cls, dataclass: type, name: str) -> Optional["ObjectPlan"]:
        """The plan of *dataclass* registered as *name*, or ``None``.

        A class gets a plan only if ``cls(*values)`` with its fields in
        declared order is the same call as ``cls(**fields)``: every field is
        a positional-or-keyword constructor parameter and there is no other
        parameter (no ``init=False`` or keyword-only field, no ``InitVar``,
        no hand-written ``__init__``).  Any other class stays on the
        object-hook route.
        """
        try:
            parameters = list(inspect.signature(dataclass).parameters.values())
        except (TypeError, ValueError):
            return None
        names = [f.name for f in dataclasses.fields(dataclass)]
        if [p.name for p in parameters] != names or any(
            p.kind is not p.POSITIONAL_OR_KEYWORD for p in parameters
        ):
            return None
        return cls(dataclass, name)


#: Shared "no plans" default, so a primitive-only codec allocates nothing.
_NO_PLANS: Mapping[Any, ObjectPlan] = {}


class WireEncoder:
    """Encodes Python values into the wire format.

    Args:
        object_hook: Callback invoked for values that are not primitives; it
            must return a ``(type_name, field_dict)`` pair or raise
            :class:`~repro.errors.CodecError`.  The message registry supplies
            this hook for registered dataclasses.
        max_depth: Container nesting limit (:data:`MAX_DEPTH` by default);
            deeper values raise :class:`~repro.errors.CodecError`.
        plans: Live mapping ``class -> ObjectPlan``.  An instance of a class
            in it is written from its plan — the same bytes the hook route
            produces — and never reaches *object_hook*.
    """

    def __init__(
        self,
        object_hook: Optional[Callable[[Any], tuple[str, dict[str, Any]]]] = None,
        max_depth: int = MAX_DEPTH,
        plans: Mapping[Any, ObjectPlan] = _NO_PLANS,
    ) -> None:
        self._object_hook = object_hook
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
            self._write_planned(buf, value, plan, depth)
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
            if value is None:
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
            elif isinstance(value, dict):
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
                for key, item in reversed(list(value.items())):
                    push((item, child_depth))
                    push((key, child_depth))
            else:
                plan = plans.get(type(value))
                if plan is not None:
                    self._write_planned(buf, value, plan, depth)
                    continue
                if self._object_hook is None:
                    raise CodecError(
                        f"cannot encode value of type {type(value).__name__}"
                    )
                type_name, fields = self._object_hook(value)
                if depth >= max_depth:
                    raise CodecError(f"value nests deeper than max_depth={max_depth}")
                buf.append(_TAG_O)
                child_depth = depth + 1
                push((fields, child_depth))
                push((type_name, child_depth))

    def _write_planned(
        self, buf: bytearray, value: Any, plan: ObjectPlan, depth: int
    ) -> None:
        """Append the OBJ encoding of *value*, an instance of ``plan.cls``.

        Recursive, but only through values that nest — and an OBJ costs two
        levels of the checked ``max_depth`` (the OBJ and its field MAP), so
        the Python stack stays shallow.  Exact ``int``/``bytes``/``str``
        fields are packed here; everything else — other primitives,
        subclasses, containers, an int64 or u32 overflow — goes through
        :meth:`_write`, which owns those encodings and their errors.
        """
        child_depth = depth + 2
        if child_depth > self._max_depth:
            raise CodecError(f"value nests deeper than max_depth={self._max_depth}")
        buf += plan.head
        plans = self._plans
        for name, key, _ in plan.fields:
            buf += key
            item = getattr(value, name)
            kind = type(item)
            try:
                if kind is int:
                    buf += _TAG_I64.pack(_TAG_I, item)
                    continue
                if kind is bytes:
                    buf += _TAG_U32.pack(_TAG_B, len(item))
                    buf += item
                    continue
                if kind is str:
                    raw = item.encode("utf-8")
                    buf += _TAG_U32.pack(_TAG_S, len(raw))
                    buf += raw
                    continue
            except struct.error:
                pass  # beyond int64 / u32: _write encodes a BIGINT or raises
            nested = plans.get(kind)
            if nested is not None:
                self._write_planned(buf, item, nested, child_depth)
            elif kind is tuple or kind is list:
                self._write_sequence(buf, item, child_depth)
            else:
                self._write(buf, item, child_depth)

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
        write = self._write
        child_depth = depth + 1
        for item in items:
            write(buf, item, child_depth)


# Decoder frame kinds (the explicit stack replacing recursion).
_F_LIST = 0
_F_MAP = 1
_F_OBJ = 2


class WireDecoder:
    """Decodes wire-format bytes back into Python values.

    Args:
        object_hook: Callback invoked for OBJ values; it receives the type
            name and field dict and must return the reconstructed object.
        max_depth: Container nesting limit (:data:`MAX_DEPTH` by default);
            deeper input raises :class:`~repro.errors.CodecError`.
        plans: Live mapping ``utf-8 type-name bytes -> ObjectPlan``.  An OBJ
            whose bytes are exactly its plan's layout is built from the plan
            and never reaches *object_hook*; any other OBJ (unknown name,
            extra, missing or reordered fields) takes the hook route, so the
            accepted inputs and the decoded values are those of the hook.
    """

    def __init__(
        self,
        object_hook: Optional[Callable[[str, dict[str, Any]], Any]] = None,
        max_depth: int = MAX_DEPTH,
        plans: Mapping[Any, ObjectPlan] = _NO_PLANS,
    ) -> None:
        self._object_hook = object_hook
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

    def _read(
        self,
        data: bytes,
        pos: int,
        end: int,
        depth: int = 0,
        stack: Optional[list[list[Any]]] = None,
    ) -> tuple[Any, int]:
        """Read one value starting at *pos*; returns ``(value, new_pos)``.

        Iterative: container frames live on an explicit stack.  A LIST frame
        is ``[kind, items, remaining]``; a MAP frame is ``[kind, dict,
        remaining, key, have_key]`` (entries are inserted as their pair
        completes, so an unhashable key fails right where it decodes); an
        OBJ frame is ``[kind, children]`` collecting the type name and field
        map before invoking the object hook.

        *depth* is how many containers already enclose the value.  A *stack*
        passed in holds the frames of a value that was begun elsewhere: the
        read resumes inside them and returns that value.
        """
        max_depth = self._max_depth
        limit = max_depth - depth  # frames this call may stack
        plans = self._plans
        if stack is None:
            stack = []
        while True:
            # ---- read exactly one leaf, or open a container frame -------
            if pos >= end:
                raise CodecError("truncated wire data")
            tag = data[pos]
            pos += 1
            have_value = True
            value: Any = None
            if tag == _TAG_I:
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
                if len(stack) >= limit:
                    raise CodecError(
                        f"input nests deeper than max_depth={max_depth}"
                    )
                planned = (
                    self._read_planned(data, pos, end, depth + len(stack))
                    if plans
                    else None
                )
                if planned is None:
                    stack.append([_F_OBJ, []])
                    have_value = False
                else:
                    value, pos = planned
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
                    stack.append([_F_LIST, [], count])
                    have_value = False
            elif tag == _TAG_M:
                if pos + 4 > end:
                    raise CodecError("truncated wire data")
                count = _U32.unpack_from(data, pos)[0]
                pos += 4
                if count > (end - pos) // 2:
                    raise CodecError(
                        f"declared count {count} exceeds the {end - pos} bytes remaining"
                    )
                if count == 0:
                    value = {}
                else:
                    if len(stack) >= limit:
                        raise CodecError(
                            f"input nests deeper than max_depth={max_depth}"
                        )
                    stack.append([_F_MAP, {}, count, None, False])
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
                elif kind == _F_MAP:
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
                else:  # _F_OBJ
                    children = frame[1]
                    children.append(value)
                    if len(children) < 2:
                        break  # the field map is next
                    stack.pop()
                    type_name, fields = children
                    if not isinstance(type_name, str) or not isinstance(fields, dict):
                        raise CodecError("malformed object encoding")
                    if self._object_hook is None:
                        raise CodecError(
                            f"no object hook to decode type {type_name!r}"
                        )
                    try:
                        value = self._object_hook(type_name, fields)
                    except CodecError:
                        raise
                    except Exception as exc:
                        # A registered hook choking on adversarial field
                        # values is still a malformed frame, not a crash.
                        raise CodecError(
                            f"object hook failed for type {type_name!r}: {exc}"
                        ) from exc

    def _read_planned(
        self, data: bytes, pos: int, end: int, depth: int
    ) -> Optional[tuple[Any, int]]:
        """Read the OBJ whose ``'O'`` tag ends at *pos* from its class's plan.

        Returns ``None`` — nothing consumed, the caller takes the hook route
        from the tag — unless the bytes start with a plan's head: a STR type
        name that has a plan, then a MAP of exactly its field count.  The
        field keys are then compared against the plan's in place, exact
        ``I``/``B``/``S`` leaves are read here and every other value by
        :meth:`_read` two levels down (the OBJ and its MAP, as on the hook
        route).  Recursive through nested values only, so ``max_depth``
        bounds the Python stack too.

        A key that is not the planned one (reordered fields, an unknown name
        where a known one was due) moves the object to the hook route where
        it stands: :meth:`_read` resumes inside an OBJ frame holding the
        fields read so far.  The object is not read again from its tag —
        hostile nesting would make that exponential.
        """
        name_at = pos + 5
        if name_at > end or data[pos] != _TAG_S:
            return None
        name_end = name_at + _U32.unpack_from(data, pos + 1)[0]
        plan = self._plans.get(data[name_at:name_end]) if name_end <= end else None
        if plan is None:
            return None
        head = plan.head
        fields = plan.fields
        head_at = pos - 1
        pos = head_at + len(head)
        child_depth = depth + 2
        max_depth = self._max_depth
        if data[head_at:pos] != head or (fields and child_depth > max_depth):
            return None  # not MAP(n); or too deep, which the hook route reports
        values: list[Any] = []
        for _, key, as_tuple in fields:
            key_end = pos + len(key)
            if data[pos:key_end] != key:
                done = {name: value for (name, _, _), value in zip(fields, values)}
                resume = [
                    [_F_OBJ, [plan.name]],
                    [_F_MAP, done, len(fields) - len(values), None, False],
                ]
                return self._read(data, pos, end, depth, resume)
            if key_end >= end:
                raise CodecError("truncated wire data")
            tag = data[key_end]
            pos = key_end + 1
            if tag == _TAG_I:
                if pos + 8 > end:
                    raise CodecError("truncated wire data")
                values.append(_I64.unpack_from(data, pos)[0])
                pos += 8
                continue
            if tag == _TAG_B or tag == _TAG_S:
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
                if tag == _TAG_S:
                    try:
                        value = value.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise CodecError(f"invalid utf-8 in string: {exc}") from exc
                values.append(value)
                continue
            nested = (
                self._read_planned(data, pos, end, child_depth)
                if tag == _TAG_O and child_depth < max_depth
                else None
            )
            value, pos = nested or self._read(data, key_end, end, child_depth)
            if as_tuple and type(value) is list:
                value = tuple(value)
            values.append(value)
        try:
            return plan.cls(*values), pos
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(
                f"cannot build {plan.name!r} from its decoded fields: {exc}"
            ) from exc

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


def dataclass_fields(value: Any) -> dict[str, Any]:
    """Shallow field dict of a dataclass instance (no recursion)."""
    if not dataclasses.is_dataclass(value) or isinstance(value, type):
        raise CodecError(f"{value!r} is not a dataclass instance")
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


__all__ = [
    "MAX_DEPTH",
    "ObjectPlan",
    "WireEncoder",
    "WireDecoder",
    "encode",
    "decode",
    "encode_many",
    "decode_many",
    "dataclass_fields",
    "declared_as_tuple",
]
