"""An independent reference for the wire codec: plain recursion over the grammar.

The grammar is the one in :mod:`repro.net.wire`'s docstring, with the OBJ
layout strict — one wire spelling per registered class::

    OBJ := 'O' STR(type-name) 'M' u32(field count) (STR(field-name) value)*

every field, in declared order.  Nothing here runs the codec it checks: no
``WireEncoder`` / ``WireDecoder`` loop, no ``ObjectPlan``, no generated code;
values are written with ``int.to_bytes`` and ``struct``, read by one
recursive function per direction, and objects are built as
``cls(**fields)``.  The depth rules are the codec's documented ones:

* encode: a LIST or MAP at depth *d* needs ``d < max_depth``, empty or not;
  an OBJ needs it for itself and for its field MAP one level down;
* decode: a LIST or MAP with entries at depth *d* needs ``d < max_depth``
  (an empty one opens no level); an OBJ needs it for itself, and for its
  MAP one level down if the class has fields.

Field values of an OBJ sit two levels below it, elements of a LIST or MAP
one level below.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Mapping

from repro.errors import CodecError
from repro.net.wire import MAX_DEPTH, declared_as_tuple

_U32_MAX = 2**32 - 1


class WireReference:
    """Encoder and decoder for primitives and the registered *classes* (name -> class)."""

    def __init__(self, classes: Mapping[str, type], max_depth: int = MAX_DEPTH) -> None:
        self.classes = dict(classes)
        self.names = {cls: name for name, cls in self.classes.items()}
        self.max_depth = max_depth

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

    def _enter(self, depth: int) -> None:
        if depth >= self.max_depth:
            raise CodecError(f"deeper than max_depth={self.max_depth}")

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
        elif type(value) in self.names:
            self._enter(depth)
            out += b"O"
            self._put(out, self.names[type(value)], depth + 1)
            fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
            self._put(out, fields, depth + 1)
        else:
            raise CodecError(f"cannot encode value of type {type(value).__name__}")

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
            try:
                return raw.decode("utf-8"), pos
            except UnicodeDecodeError as exc:
                raise CodecError("invalid utf-8") from exc
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
            return self._get_object(data, pos, depth)
        raise CodecError(f"unknown tag {tag!r}")

    def _get_string(self, data: bytes, pos: int) -> tuple[bytes, int]:
        if self._take(data, pos, 1) != b"S":
            raise CodecError("expected a STR")
        n = self._u32(data, pos + 1)
        return self._take(data, pos + 5, n), pos + 5 + n

    def _get_object(self, data: bytes, pos: int, depth: int) -> tuple[Any, int]:
        self._enter(depth)
        name, pos = self._get_string(data, pos)
        cls = self.classes.get(name.decode("utf-8", "replace"))
        if cls is None or self.names[cls].encode("utf-8") != name:
            raise CodecError(f"no registered class named {name!r}")
        fields = dataclasses.fields(cls)
        if self._take(data, pos, 1) != b"M" or self._u32(data, pos + 1) != len(fields):
            raise CodecError(f"{name!r}: not a field map of {len(fields)} entries")
        pos += 5
        if fields:
            self._enter(depth + 1)
        values = {}
        for field in fields:
            key, pos = self._get_string(data, pos)
            if key != field.name.encode("utf-8"):
                raise CodecError(f"{name!r}: expected field {field.name!r}, got {key!r}")
            value, pos = self._get(data, pos, depth + 2)
            if type(value) is list and declared_as_tuple(field):
                value = tuple(value)
            values[field.name] = value
        try:
            return cls(**values), pos
        except Exception as exc:
            raise CodecError(f"{name!r}: constructor refused its fields: {exc}") from exc
