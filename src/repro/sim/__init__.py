"""Deterministic discrete-event simulator.

The paper evaluates latency on Amazon EC2 and throughput on a local cluster.
This package substitutes both testbeds with a deterministic discrete-event
simulation (see docs/ARCHITECTURE.md, "Backends"):

* :mod:`repro.sim.scheduler` / :mod:`repro.sim.environment` — event queue and
  simulation environment (the time source for simulated clocks); the
  scheduler module also holds the ``Timer`` interface and ``LoopTimer``,
  the same queue on a running asyncio loop.
* :mod:`repro.sim.network` — wide-area network model parameterised by a
  one-way latency matrix (the paper's Table III), with optional jitter,
  partitions and per-channel FIFO delivery; the asyncio backend's
  in-process cluster delivers through it too.
* :mod:`repro.sim.node` — a simulated replica host, including the optional
  CPU/batching cost model used by the throughput experiments.
* :mod:`repro.sim.cluster` — wires clocks, logs, protocol replicas, network
  and nodes into a runnable cluster.
* :mod:`repro.sim.failures` — crash/recovery/partition fault injection.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".cluster": ("ReplyEvent", "SimulatedCluster"),
        ".environment": ("SimulationEnvironment",),
        ".network": ("NetworkOptions", "SimulatedNetwork"),
        ".node": ("CpuModel", "SimulatedNode"),
        ".scheduler": ("EventScheduler", "LoopTimer", "ScheduledEvent", "Timer"),
    },
)

__all__ = [
    "EventScheduler",
    "LoopTimer",
    "ScheduledEvent",
    "Timer",
    "SimulationEnvironment",
    "SimulatedNetwork",
    "NetworkOptions",
    "SimulatedNode",
    "CpuModel",
    "SimulatedCluster",
    "ReplyEvent",
]
