"""An independent reference for the wire codec: plain recursion over the grammar.

The grammar is the one in :mod:`repro.net.wire`'s docstring::

    OBJ := 'O' u16(type id) body(class)

with a class's type id the position of its name among all registered names
in sorted order, and its body every field in declared order, each in the
form its type hint gives it: ``int`` an int64, ``str`` / ``bytes`` a u32
length and the bytes, a registered class its body inline, ``tuple[X, ...]``
a u32 count and the elements in X's form, anything else a tagged value.

Nothing here runs the codec it checks: no ``WireEncoder`` / ``WireDecoder``
loop, no ``ObjectPlan``, no generated code; values are written with
``int.to_bytes`` and ``struct``, read by one recursive function per
direction, and objects are built as ``cls(**fields)``.  The depth rules are
the codec's documented ones:

* encode: a LIST or MAP at depth *d* needs ``d < max_depth``, empty or not;
* decode: a LIST or MAP with entries at depth *d* needs ``d < max_depth``
  (an empty one opens no level);
* both: an object, tagged or inlined, at depth *d* needs ``d < max_depth``,
  and so does a fixed-form tuple with elements.

What a container or an object holds sits one level below it.  A tuple's
count is refused when the bytes left cannot hold that many elements of its
form's smallest size (one byte at least).
"""

from __future__ import annotations

import dataclasses
import struct
import typing
from typing import Any, Mapping

import repro.consensus.single_paxos
import repro.core.messages
import repro.core.reconfig
import repro.protocols.mencius
import repro.protocols.multipaxos
import repro.protocols.records
import repro.types
from repro.errors import CodecError
from repro.net.message import global_registry
from repro.net.wire import MAX_DEPTH, declared_as_tuple

_U32_MAX = 2**32 - 1

_LIBRARY_MODULES = (
    repro.types,
    repro.core.messages,
    repro.core.reconfig,
    repro.protocols.records,
    repro.protocols.mencius,
    repro.protocols.multipaxos,
    repro.consensus.single_paxos,
)


def library_classes() -> dict[str, type]:
    """name -> class for everything the library registers globally: the table
    whose sorted names give the global registry's type ids."""
    return {
        cls.__name__: cls
        for module in _LIBRARY_MODULES
        for cls in vars(module).values()
        if isinstance(cls, type) and global_registry.is_registered(cls)
    }


class WireReference:
    """Encoder and decoder for primitives and the registered *classes* (name -> class)."""

    def __init__(self, classes: Mapping[str, type], max_depth: int = MAX_DEPTH) -> None:
        self.classes = dict(classes)
        self.names = {cls: name for name, cls in self.classes.items()}
        #: type id -> class, ids in sorted-name order
        self.by_id = dict(enumerate(self.classes[name] for name in sorted(self.classes)))
        self.ids = {cls: type_id for type_id, cls in self.by_id.items()}
        self.max_depth = max_depth
        self._fields: dict[type, list[tuple[dataclasses.Field, tuple]]] = {}

    def _enter(self, depth: int) -> None:
        if depth >= self.max_depth:
            raise CodecError(f"deeper than max_depth={self.max_depth}")

    # -- forms ---------------------------------------------------------------

    def form(self, hint: Any) -> tuple:
        """``("int",)``, ``("str",)``, ``("bytes",)``, ``("object", cls)``,
        ``("tuple", element form)`` or ``("any",)``."""
        if typing.get_origin(hint) is tuple:
            args = typing.get_args(hint)
            if len(args) == 2 and args[1] is Ellipsis:
                return ("tuple", self.form(args[0]))
            return ("any",)
        for leaf in (int, str, bytes):
            if hint is leaf:
                return (leaf.__name__,)
        if isinstance(hint, type) and hint in self.names:
            return ("object", hint)
        return ("any",)

    def fields(self, cls: type) -> list[tuple[dataclasses.Field, tuple]]:
        """*cls*'s fields with their forms (worked out once per class)."""
        if cls not in self._fields:
            try:
                hints = typing.get_type_hints(cls)
            except Exception:
                hints = {}
            self._fields[cls] = [(f, self.form(hints.get(f.name))) for f in dataclasses.fields(cls)]
        return self._fields[cls]

    def min_size(self, form: tuple, seen: tuple = ()) -> int:
        kind = form[0]
        if kind == "int":
            return 8
        if kind == "any":
            return 1
        if kind != "object":
            return 4
        if form[1] in seen:
            return 0
        return sum(self.min_size(inner, seen + (form[1],)) for _, inner in self.fields(form[1]))

    # -- encode ------------------------------------------------------------

    def encode(self, value: Any) -> bytes:
        out = bytearray()
        self._put(out, value, 0)
        return bytes(out)

    def encode_many(self, values: Any) -> bytes:
        out = bytearray()
        for value in values:
            self._put(out, value, 0)
        return bytes(out)

    def _put(self, out: bytearray, value: Any, depth: int) -> None:
        if value is None:
            out += b"N"
        elif value is True:
            out += b"T"
        elif value is False:
            out += b"F"
        elif isinstance(value, int):
            if -(2**63) <= value < 2**63:
                out += b"I" + value.to_bytes(8, "big", signed=True)
            else:
                self._sized(out, b"J", value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True))
        elif isinstance(value, float):
            out += b"D" + struct.pack(">d", value)
        elif isinstance(value, str):
            self._sized(out, b"S", value.encode("utf-8"))
        elif isinstance(value, (bytes, bytearray, memoryview)):
            self._sized(out, b"B", bytes(value))
        elif isinstance(value, (list, tuple)):
            self._enter(depth)
            self._sized(out, b"L", b"", len(value))
            for item in value:
                self._put(out, item, depth + 1)
        elif isinstance(value, dict):
            self._enter(depth)
            self._sized(out, b"M", b"", len(value))
            for key, item in value.items():
                self._put(out, key, depth + 1)
                self._put(out, item, depth + 1)
        elif type(value) in self.ids:
            self._enter(depth)
            out += b"O" + self.ids[type(value)].to_bytes(2, "big")
            self._put_body(out, value, depth)
        else:
            raise CodecError(f"cannot encode value of type {type(value).__name__}")

    def _put_body(self, out: bytearray, value: Any, depth: int) -> None:
        for field, form in self.fields(type(value)):
            self._put_form(out, getattr(value, field.name), form, depth + 1)

    def _put_form(self, out: bytearray, value: Any, form: tuple, depth: int) -> None:
        kind = form[0]
        if kind == "any":
            self._put(out, value, depth)
            return
        expected = {"int": int, "str": str, "bytes": bytes, "tuple": tuple}.get(kind) or form[1]
        if type(value) is not expected:
            raise CodecError(f"{type(value).__name__} where {expected.__name__} is declared")
        if kind == "int":
            if not -(2**63) <= value < 2**63:
                raise CodecError("int beyond int64 in an int field")
            out += value.to_bytes(8, "big", signed=True)
        elif kind in ("str", "bytes"):
            raw = value.encode("utf-8") if kind == "str" else value
            self._sized(out, b"", raw)
        elif kind == "object":
            self._enter(depth)
            self._put_body(out, value, depth)
        else:
            self._sized(out, b"", b"", len(value))
            if value:
                self._enter(depth)
            for item in value:
                self._put_form(out, item, form[1], depth + 1)

    @staticmethod
    def _sized(out: bytearray, tag: bytes, raw: bytes, size: int = -1) -> None:
        size = len(raw) if size < 0 else size
        if size > _U32_MAX:
            raise CodecError(f"{size} exceeds the u32 length field")
        out += tag + size.to_bytes(4, "big") + raw

    # -- decode ------------------------------------------------------------

    def decode(self, data: Any) -> Any:
        data = bytes(data)
        value, pos = self._get(data, 0, 0)
        if pos != len(data):
            raise CodecError("trailing bytes")
        return value

    def decode_many(self, data: Any) -> list[Any]:
        data = bytes(data)
        values, pos = [], 0
        while pos < len(data):
            value, pos = self._get(data, pos, 0)
            values.append(value)
        return values

    @staticmethod
    def _take(data: bytes, pos: int, n: int) -> bytes:
        if pos + n > len(data):
            raise CodecError("truncated")
        return data[pos : pos + n]

    def _u32(self, data: bytes, pos: int) -> int:
        return int.from_bytes(self._take(data, pos, 4), "big")

    def _get(self, data: bytes, pos: int, depth: int) -> tuple[Any, int]:
        tag, pos = self._take(data, pos, 1), pos + 1
        if tag in b"NTF":
            return {b"N": None, b"T": True, b"F": False}[tag], pos
        if tag == b"I":
            return int.from_bytes(self._take(data, pos, 8), "big", signed=True), pos + 8
        if tag == b"D":
            return struct.unpack(">d", self._take(data, pos, 8))[0], pos + 8
        if tag in b"JSB":
            n = self._u32(data, pos)
            raw, pos = self._take(data, pos + 4, n), pos + 4 + n
            if tag == b"J":
                return int.from_bytes(raw, "big", signed=True), pos
            if tag == b"B":
                return raw, pos
            return self._text(raw), pos
        if tag == b"L":
            count, pos = self._u32(data, pos), pos + 4
            if count:
                self._enter(depth)
            items = []
            for _ in range(count):
                item, pos = self._get(data, pos, depth + 1)
                items.append(item)
            return items, pos
        if tag == b"M":
            count, pos = self._u32(data, pos), pos + 4
            if count:
                self._enter(depth)
            entries: dict[Any, Any] = {}
            for _ in range(count):
                key, pos = self._get(data, pos, depth + 1)
                item, pos = self._get(data, pos, depth + 1)
                try:
                    entries[key] = item
                except TypeError as exc:
                    raise CodecError("unhashable map key") from exc
            return entries, pos
        if tag == b"O":
            type_id = int.from_bytes(self._take(data, pos, 2), "big")
            cls = self.by_id.get(type_id)
            if cls is None:
                raise CodecError(f"no registered class has type id {type_id}")
            self._enter(depth)
            return self._get_body(data, pos + 2, cls, depth)
        raise CodecError(f"unknown tag {tag!r}")

    @staticmethod
    def _text(raw: bytes) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8") from exc

    def _get_body(self, data: bytes, pos: int, cls: type, depth: int) -> tuple[Any, int]:
        values = {}
        for field, form in self.fields(cls):
            value, pos = self._get_form(data, pos, form, depth + 1)
            if form[0] == "any" and type(value) is list and declared_as_tuple(field):
                value = tuple(value)
            values[field.name] = value
        try:
            return cls(**values), pos
        except Exception as exc:
            raise CodecError(f"{cls.__name__}: constructor refused its fields: {exc}") from exc

    def _get_form(self, data: bytes, pos: int, form: tuple, depth: int) -> tuple[Any, int]:
        kind = form[0]
        if kind == "any":
            return self._get(data, pos, depth)
        if kind == "int":
            return int.from_bytes(self._take(data, pos, 8), "big", signed=True), pos + 8
        if kind in ("str", "bytes"):
            n = self._u32(data, pos)
            raw = self._take(data, pos + 4, n)
            return (self._text(raw) if kind == "str" else raw), pos + 4 + n
        if kind == "object":
            self._enter(depth)
            return self._get_body(data, pos, form[1], depth)
        count, pos = self._u32(data, pos), pos + 4
        if count > (len(data) - pos) // max(1, self.min_size(form[1])):
            raise CodecError(f"count {count} beyond what the bytes left can hold")
        if count:
            self._enter(depth)
        items = []
        for _ in range(count):
            item, pos = self._get_form(data, pos, form[1], depth + 1)
            items.append(item)
        return tuple(items), pos
