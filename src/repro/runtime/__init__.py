"""Asyncio runtime: run the sans-IO protocols on real transports.

The simulator (:mod:`repro.sim`) is the substrate for all paper experiments;
this package runs the very same protocol objects as live asyncio services:

* :class:`~repro.runtime.driver.AsyncReplicaDriver` — executes a replica's
  actions on an event loop and a transport, and schedules its timers.
* :class:`~repro.runtime.server.ReplicaServer` — a replica plus the peer
  transport it is given (TCP or in-loop) plus an in-process ``submit`` API.
* :class:`~repro.runtime.client.ReplicatedKVClient` — an asyncio key-value
  client over a colocated :class:`ReplicaServer`'s ``submit``.
* :class:`~repro.runtime.local.LocalAsyncCluster` — all replicas in one
  process connected by the simulator's link model on the loop's clock, with
  optional injected WAN delays; used by the examples to run a
  "geo-replicated" store live.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".client": ("ReplicatedKVClient",),
        ".driver": ("AsyncReplicaDriver",),
        ".local": ("LocalAsyncCluster",),
        ".server": ("ReplicaServer",),
    },
)

__all__ = [
    "AsyncReplicaDriver",
    "ReplicaServer",
    "ReplicatedKVClient",
    "LocalAsyncCluster",
]
