"""Asyncio runtime: run the sans-IO protocols on real transports.

The simulator (:mod:`repro.sim`) is the substrate for all paper experiments;
this package runs the very same protocol objects as live asyncio services:

* :class:`~repro.runtime.driver.AsyncReplicaDriver` — executes a replica's
  actions on an event loop and a transport, and schedules its timers.
* :class:`~repro.runtime.server.ReplicaServer` — a replica plus a TCP (or
  in-memory) transport plus a client-facing request/response endpoint.
* :class:`~repro.runtime.client.ReplicatedKVClient` — an asyncio key-value
  client that talks to a :class:`ReplicaServer`.
* :class:`~repro.runtime.local.LocalAsyncCluster` — all replicas in one
  process connected by the simulator's link model on the loop's clock, with
  optional injected WAN delays; used by the examples to run a
  "geo-replicated" store live.
"""

from .client import ReplicatedKVClient
from .driver import AsyncReplicaDriver
from .local import LocalAsyncCluster
from .messages import ClientRequest, ClientResponse
from .server import ReplicaServer

__all__ = [
    "AsyncReplicaDriver",
    "ReplicaServer",
    "ReplicatedKVClient",
    "LocalAsyncCluster",
    "ClientRequest",
    "ClientResponse",
]
