"""Networking substrate: wire format, latency model, and transports.

The replication protocols themselves are sans-IO (see
:mod:`repro.protocols.base`); this package supplies everything needed to move
their messages between replicas:

* :mod:`repro.net.wire` — a compact binary codec used by the TCP transport:
  tagged primitives, and registered messages laid out by position, like the
  paper's Protocol Buffers (any compact codec preserves the evaluated
  behaviour).
* :mod:`repro.net.message` — message registry and the :class:`Envelope`
  wrapper that transports exchange.
* :mod:`repro.net.latency` — one-way latency matrices, including helpers to
  build them from round-trip measurements such as the paper's Table III.
* :mod:`repro.net.transport` — the transport interface plus an in-memory
  implementation; :mod:`repro.net.tcp` adds an asyncio TCP transport.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".latency": ("LatencyMatrix",),
        ".message": (
            "Envelope", "MessageRegistry", "global_registry", "register_message",
        ),
        ".transport": ("InMemoryNetwork", "InMemoryTransport", "Transport"),
        ".wire": ("WireDecoder", "WireEncoder", "decode", "encode"),
    },
)

__all__ = [
    "LatencyMatrix",
    "Envelope",
    "MessageRegistry",
    "global_registry",
    "register_message",
    "Transport",
    "InMemoryNetwork",
    "InMemoryTransport",
    "WireEncoder",
    "WireDecoder",
    "encode",
    "decode",
]
