"""Message registry and transport envelopes.

Every protocol message in this library is a frozen dataclass.  To cross a
real transport (TCP) or be appended to a file-backed log, a message type must
be *registered* so the wire codec can round-trip it by name.  Registration
compiles the class's one wire layout (:class:`~repro.net.wire.ObjectPlan`)
and refuses a class it cannot compile.  It is done with the
:func:`register_message` decorator; the protocols register all their message
types at import time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Type, TypeVar

from ..errors import CodecError
from ..types import ReplicaId
from .wire import ObjectPlan, WireDecoder, WireEncoder

T = TypeVar("T")


class MessageRegistry:
    """Maps message type names to dataclass types for codec round-trips."""

    def __init__(self) -> None:
        # The codec is compiled: one ObjectPlan per registered class, found by
        # the class on encode and by its raw utf-8 type-name bytes on decode;
        # its reader and writer are generated when the class is first coded.
        # This one map is the registry.  The codec pair below holds it itself,
        # so a class registered after construction (or after the first call)
        # is picked up.
        self._plans: dict[Any, ObjectPlan] = {}
        # Reusing the encoder keeps its internal bytearray warm across
        # frames, which makes ``encode``/``encode_many`` single-threaded
        # (like the event loop that calls them); the ``*_into`` variants and
        # the decoder only touch caller-owned state and are reentrant.
        self._encoder = WireEncoder(plans=self._plans)
        self._decoder = WireDecoder(plans=self._plans)

    def register(self, cls: Type[T], name: Optional[str] = None) -> Type[T]:
        """Register *cls* under *name* (defaults to the class name).

        A class has one name: registering it again under the same name does
        nothing, under another raises :class:`~repro.errors.CodecError`, as
        does a class the codec cannot plan (:meth:`ObjectPlan.compile`).
        """
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"only dataclasses can be registered, got {cls!r}")
        key = name or cls.__name__
        known = self._plans.get(cls)
        if known is not None:
            if known.name != key:
                raise CodecError(f"{cls!r} is already registered as {known.name!r}, not {key!r}")
            return cls
        existing = self._plans.get(key.encode("utf-8"))
        if existing is not None:
            raise CodecError(f"message name {key!r} already registered to {existing.cls!r}")
        self._plans[cls] = self._plans[key.encode("utf-8")] = ObjectPlan.compile(cls, key)
        return cls

    def names(self) -> Iterator[str]:
        return (plan.name for key, plan in self._plans.items() if key is plan.cls)

    def is_registered(self, cls: type) -> bool:
        return cls in self._plans

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
