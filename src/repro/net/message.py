"""Message registry and transport envelopes.

Every protocol message in this library is a frozen dataclass.  To cross a
real transport (TCP), a message type must be *registered* so the wire codec
can round-trip it by its type id.  Registration compiles the class's one
wire layout (:class:`~repro.net.wire.ObjectPlan`) and refuses a class it
cannot compile.  It is done with the
:func:`register_message` decorator; the protocols register all their message
types at import time.

A process imports only the protocol it runs, yet type ids are positions in
the sorted table and the TCP hello compares table digests, so the first
:meth:`~MessageRegistry.table` (which :meth:`~MessageRegistry.digest` reads)
imports every message-defining module (:func:`_message_modules`): the table
is whole whatever the process imported before.  Every TCP connection reads
the digest before it encodes or decodes a frame.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Optional, Type, TypeVar

from ..errors import CodecError
from ..types import ReplicaId
from .wire import ObjectPlan, WireDecoder, WireEncoder

T = TypeVar("T")

_U16_MAX = 2**16 - 1


class MessageRegistry:
    """The table of registered message classes and the codec pair built on it.

    Each class has one name and a *type id*: the position of its name among
    all registered names in sorted order, so two processes that register the
    same classes give them the same ids whatever order they import them in.
    :meth:`digest` covers the whole table — names, ids and every field's
    form — so peers can check they speak the same wire before exchanging
    messages (the TCP transport's hello does).
    """

    def __init__(self) -> None:
        # Set once every message-defining module is imported (see table()).
        self._whole = False
        # The codec is compiled: one ObjectPlan per registered class, found by
        # the class on encode and by its type id on decode; its reader and
        # writer are generated when the class is first coded.  The codec
        # pair below holds both maps itself, so a class registered after
        # construction (or after the first call) is picked up.
        self._plans: dict[Any, ObjectPlan] = {}
        self._ids: dict[int, ObjectPlan] = {}
        self._digest: Optional[bytes] = None
        # Reusing the encoder keeps its internal bytearray warm across
        # frames, which makes ``encode`` single-threaded (like the event
        # loop that calls it); the ``*_into`` variants and the decoder only
        # touch caller-owned state and are reentrant.
        self._encoder = WireEncoder(plans=self._plans)
        self._decoder = WireDecoder(plans=self._ids)

    def register(self, cls: Type[T]) -> Type[T]:
        """Register *cls* under its class name.

        Registering it again does nothing. Another class of the same name
        raises :class:`~repro.errors.CodecError`, as does a class the codec
        cannot plan (:meth:`ObjectPlan.compile`). Every registration
        renumbers the table and drops the generated code, which the next use
        regenerates against the new table.
        """
        if not dataclasses.is_dataclass(cls):
            raise CodecError(f"only dataclasses can be registered, got {cls!r}")
        if cls in self._plans:
            return cls
        key = cls.__name__
        for existing in self._plans.values():
            if existing.name == key:
                raise CodecError(f"message name {key!r} already registered to {existing.cls!r}")
        if len(self._plans) > _U16_MAX:
            raise CodecError(f"a registry holds at most {_U16_MAX + 1} classes (u16 type ids)")
        self._plans[cls] = ObjectPlan.compile(cls, key)
        self._ids.clear()
        for type_id, plan in enumerate(sorted(self._plans.values(), key=lambda plan: plan.name)):
            plan.number(type_id)
            plan.reset(self._plans)
            self._ids[type_id] = plan
        self._digest = None
        return cls

    def table(self) -> list[str]:
        """One line per class in type-id order: ``<id> <name>(<field>:<form>,...)``.

        The first call imports every message-defining module, so the table of
        :data:`global_registry` is whole; it leaves another registry's as is.
        """
        if not self._whole:
            _message_modules()
            self._whole = True
        return [f"{type_id} {plan.signature()}" for type_id, plan in sorted(self._ids.items())]

    def digest(self) -> bytes:
        """16 bytes naming :meth:`table`: equal digests, the same wire."""
        if self._digest is None:
            text = "\n".join(self.table()).encode("utf-8")
            self._digest = hashlib.sha256(text).digest()[:16]
        return self._digest

    def is_registered(self, cls: type) -> bool:
        return cls in self._plans

    # -- public encode/decode ----------------------------------------------

    def encode(self, value: Any) -> bytes:
        """Encode a value that may contain registered message instances."""
        return self._encoder.encode(value)

    def decode(self, data: Any) -> Any:
        """Decode wire bytes produced by :meth:`encode` (any bytes-like)."""
        return self._decoder.decode(data)

    def decode_many(self, data: Any) -> list[Any]:
        """Decode a concatenated stream produced by :meth:`encode_many_into`."""
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


def _message_modules() -> tuple[ModuleType, ...]:
    """Import every module that registers message classes here (one each).

    Clock-RSM's messages with its reconfiguration and consensus, the command
    units, and the baselines' messages: the whole table a peer may speak.
    """
    from ..consensus import single_paxos
    from ..core import messages, reconfig
    from ..protocols import mencius, multipaxos, records

    return (messages, reconfig, single_paxos, records, multipaxos, mencius)


#: The library-wide registry used by the default transport; whole on first use.
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

    def __len__(self) -> int:
        return len(self.messages)


__all__ = [
    "MessageRegistry",
    "global_registry",
    "register_message",
    "Envelope",
    "EnvelopeBatch",
]
