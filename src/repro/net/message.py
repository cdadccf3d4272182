"""Message registry and transport envelopes.

Every protocol message in this library is a frozen dataclass.  To cross a
real transport (TCP) or be appended to a file-backed log, a message type must
be *registered* so the wire codec can round-trip it by name.  Registration is
done with the :func:`register_message` decorator; the protocols register all
their message types at import time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Type, TypeVar

from ..errors import CodecError
from ..types import ReplicaId
from .wire import ObjectPlan, WireDecoder, WireEncoder, dataclass_fields, declared_as_tuple

T = TypeVar("T")


class MessageRegistry:
    """Maps message type names to dataclass types for codec round-trips."""

    def __init__(self) -> None:
        self._by_name: dict[str, type] = {}
        self._by_type: dict[type, str] = {}
        # The compiled codec: one ObjectPlan per registered class, built in
        # ``register`` and found by class on encode and by the raw utf-8
        # type-name bytes on decode; its reader and writer are generated
        # when the class is first coded.  The codec pair below holds this
        # dict itself, so a class registered after construction (or after
        # the first call) is picked up.  The hooks are the reflective route
        # the plans reproduce byte for byte; they still serve a class that
        # has no plan and wire input that is not laid out as its plan expects.
        self._plans: dict[Any, ObjectPlan] = {}
        # Reusing the encoder keeps its internal bytearray warm across
        # frames, which makes ``encode``/``encode_many`` single-threaded
        # (like the event loop that calls them); the ``*_into`` variants and
        # the decoder only touch caller-owned state and are reentrant.
        self._encoder = WireEncoder(object_hook=self._encode_hook, plans=self._plans)
        self._decoder = WireDecoder(object_hook=self._decode_hook, plans=self._plans)

    def register(self, cls: Type[T], name: Optional[str] = None) -> Type[T]:
        """Register *cls* under *name* (defaults to the class name)."""
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"only dataclasses can be registered, got {cls!r}")
        key = name or cls.__name__
        existing = self._by_name.get(key)
        if existing is not None and existing is not cls:
            raise CodecError(f"message name {key!r} already registered to {existing!r}")
        self._by_name[key] = cls
        self._by_type[cls] = key
        plan = ObjectPlan.compile(cls, key)
        if plan is not None:
            if cls in self._plans:
                # A second name for the class: code generated for a class
                # that nests it has the first name's bytes inlined.
                for other in self._plans.values():
                    other.reset()
            self._plans[cls] = self._plans[key.encode("utf-8")] = plan
        return cls

    def names(self) -> Iterator[str]:
        return iter(self._by_name)

    def is_registered(self, cls: type) -> bool:
        return cls in self._by_type

    # -- codec hooks -------------------------------------------------------

    def _encode_hook(self, value: Any) -> tuple[str, dict[str, Any]]:
        name = self._by_type.get(type(value))
        if name is None:
            raise CodecError(f"unregistered message type {type(value).__name__}")
        return name, dataclass_fields(value)

    def _decode_hook(self, name: str, fields: dict[str, Any]) -> Any:
        cls = self._by_name.get(name)
        if cls is None:
            raise CodecError(f"unknown message type {name!r}")
        converted = _convert_fields(cls, fields)
        return cls(**converted)

    # -- public encode/decode ----------------------------------------------

    def encode(self, value: Any) -> bytes:
        """Encode a value that may contain registered message instances."""
        return self._encoder.encode(value)

    def decode(self, data: Any) -> Any:
        """Decode wire bytes produced by :meth:`encode` (any bytes-like)."""
        return self._decoder.decode(data)

    def encode_many(self, values: Any) -> bytes:
        """Encode an iterable of values as one concatenated stream."""
        return self._encoder.encode_many(values)

    def decode_many(self, data: Any) -> list[Any]:
        """Decode a concatenated stream produced by :meth:`encode_many`."""
        return self._decoder.decode_many(data)

    def encode_into(self, buf: bytearray, value: Any) -> int:
        """Append the encoding of *value* to *buf*; returns bytes written.

        Frame-fusion path for transports: lets a caller reserve its length
        prefix in *buf* and encode the body directly after it, with no
        intermediate ``bytes`` object.
        """
        return self._encoder.encode_into(buf, value)

    def encode_many_into(self, buf: bytearray, values: Any) -> int:
        """Append a concatenated value stream to *buf*; returns bytes written."""
        return self._encoder.encode_many_into(buf, values)


def _convert_fields(cls: type, fields: dict[str, Any]) -> dict[str, Any]:
    """Coerce decoded collections back to the declared field container types.

    The wire format does not distinguish tuples from lists; frozen dataclass
    fields declared as tuples are converted back so equality round-trips.
    """
    converted: dict[str, Any] = {}
    declared = {f.name: f for f in dataclasses.fields(cls)}
    for key, value in fields.items():
        field = declared.get(key)
        if field is None:
            # Forward compatibility: ignore unknown fields.
            continue
        if isinstance(value, list) and declared_as_tuple(field):
            value = tuple(value)
        converted[key] = value
    return converted


#: The library-wide registry used by the default transports and logs.
global_registry = MessageRegistry()


def register_message(cls: Type[T]) -> Type[T]:
    """Class decorator registering a protocol message with the global registry."""
    return global_registry.register(cls)


# Core value types that appear inside protocol messages are registered here
# so any message embedding them round-trips through the codec.
from ..types import Command, CommandId, CommandResult, Timestamp  # noqa: E402

global_registry.register(Timestamp)
global_registry.register(CommandId)
global_registry.register(Command)
global_registry.register(CommandResult)


@dataclass(frozen=True, slots=True)
class Envelope:
    """A protocol message in flight between two replicas.

    Attributes:
        src: Sending replica id.
        dst: Destination replica id.
        message: The protocol message (a registered dataclass).
        size_hint: Approximate serialized size in bytes; the simulator's
            throughput model charges CPU proportional to this.  ``0`` means
            "unknown", in which case transports may compute the real size.
    """

    src: ReplicaId
    dst: ReplicaId
    message: Any
    size_hint: int = 0

    def with_size(self, size: int) -> "Envelope":
        return Envelope(self.src, self.dst, self.message, size)


@dataclass(frozen=True, slots=True)
class EnvelopeBatch:
    """Several protocol messages between the same pair of replicas.

    The unit of *message pipelining*: a transport that has accumulated
    multiple envelopes for one destination ships them as a single framed
    multi-message envelope — one length prefix, one TCP write, one delivery
    — instead of one frame per message.  Order within the batch is the send
    order, so FIFO channel semantics (which Mencius's skip detection relies
    on) are preserved.
    """

    src: ReplicaId
    dst: ReplicaId
    messages: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise CodecError("an envelope batch cannot be empty")

    @classmethod
    def of(cls, envelopes: "list[Envelope]") -> "EnvelopeBatch":
        """Bundle same-channel envelopes, preserving their order."""
        if not envelopes:
            raise CodecError("an envelope batch cannot be empty")
        src, dst = envelopes[0].src, envelopes[0].dst
        for envelope in envelopes:
            if envelope.src != src or envelope.dst != dst:
                raise CodecError(
                    "an envelope batch must share one (src, dst) channel; got "
                    f"({src}->{dst}) and ({envelope.src}->{envelope.dst})"
                )
        return cls(src, dst, tuple(e.message for e in envelopes))

    def envelopes(self) -> list[Envelope]:
        """Unbundle back into per-message envelopes, in batch order."""
        return [Envelope(self.src, self.dst, message) for message in self.messages]

    def __len__(self) -> int:
        return len(self.messages)


__all__ = [
    "MessageRegistry",
    "global_registry",
    "register_message",
    "Envelope",
    "EnvelopeBatch",
]
