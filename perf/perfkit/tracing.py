"""Outside-in tracing: spans and counts at layer boundaries, no ``src/`` edits.

The tracer never patches a class.  It wraps *instance* attributes of the
objects one workload built (``replica.on_message``, ``state_machine.apply``,
``log.append``, ``transport.send``, the handler a driver registered) and
hands ``TcpTransport`` a delegating registry, so an untraced run executes
exactly the repository's code.

One thread, synchronous layers: the enclosing span of a call is whatever is
on top of the stack, and a span's self time is its duration minus the time
its children covered.  Totals are kept per span name; raw spans
``(name, start, end, parent, request)`` are kept for one command in 64.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from collections import Counter
from typing import Any, Callable, Optional

from repro.protocols.records import unit_commands

#: Raw spans are kept for commands whose ``seqno & SAMPLE_MASK == 0``.
SAMPLE_MASK = 63


class Tracer:
    """Span totals, boundary counts and sampled raw spans of one run."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        self.counts: Counter[str] = Counter()
        #: ops-per-unit histogram seen at ``replica.on_client_request``
        self.unit_sizes: Counter[int] = Counter()
        self.raw: list[Optional[tuple]] = []
        self._stack: list[list] = []
        # PREPAREOK carries only a timestamp; remember which sampled unit a
        # timestamp belongs to so its acknowledgements join the same request.
        self._ts_request: dict[Any, Any] = {}

    # -- spans -------------------------------------------------------------

    def span(
        self, name: str, fn: Callable, request_of: Optional[Callable] = None
    ) -> Callable:
        """*fn* wrapped in a span called *name*.

        *request_of* maps the call's arguments to the command id the span
        belongs to; without one (or when it returns ``None``) the span joins
        its parent's request.
        """
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, raw, perf = self._stack, self.raw, time.perf_counter

        def traced(*args):
            parent = stack[-1] if stack else None
            request = request_of(*args) if request_of is not None else None
            if request is None and parent is not None:
                request = parent[2]
            # frame: [seconds covered by children, raw index or -1, request]
            frame = [0.0, -1, request]
            if request is not None and not request.seqno & SAMPLE_MASK:
                frame[1] = len(raw)
                raw.append(None)  # reserve the slot so children can point at it
            stack.append(frame)
            start = perf()
            try:
                return fn(*args)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if frame[1] >= 0:
                    raw[frame[1]] = (
                        name, start, end, parent[1] if parent else -1, str(request),
                    )

        return traced

    def add_span(self, name: str, start: float, end: float, request: Any) -> None:
        """Record an asynchronous (client) span measured by the caller."""
        if not request.seqno & SAMPLE_MASK:
            self.raw.append((name, start, end, -1, str(request)))

    # -- request attribution -----------------------------------------------

    def request_of_message(self, message: Any) -> Any:
        """The command a protocol message or log record is about, if any."""
        unit = getattr(message, "command", None)
        ts = getattr(message, "ts", None)
        if unit is not None:
            first = unit_commands(unit)[0].command_id
            if ts is not None and not first.seqno & SAMPLE_MASK:
                self._ts_request[ts] = first
            return first
        if ts is not None and self._ts_request:
            return self._ts_request.get(ts)
        return None

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Totals and counts now; subtract two with :func:`delta`."""
        return {
            "totals": {name: tuple(v) for name, v in self.totals.items()},
            "counts": dict(self.counts),
            "unit_sizes": dict(self.unit_sizes),
        }

    def write_raw(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.raw):
                if span is None:
                    continue
                name, start, end, parent, request = span
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """What the tracer saw between two snapshots (the timed window)."""
    zero = (0, 0.0, 0.0)
    return {
        "totals": {
            name: tuple(a - b for a, b in zip(v, before["totals"].get(name, zero)))
            for name, v in after["totals"].items()
        },
        "counts": {
            name: v - before["counts"].get(name, 0)
            for name, v in after["counts"].items()
        },
        "unit_sizes": {
            size: v - before["unit_sizes"].get(size, 0)
            for size, v in after["unit_sizes"].items()
        },
    }


# ---------------------------------------------------------------------------
# Installing the tracer on the objects of one workload
# ---------------------------------------------------------------------------


def trace_replica(tracer: Tracer, replica: Any) -> None:
    """Span the three protocol entry points, the state machine and the log."""

    def unit_request(unit):
        commands = unit_commands(unit)
        tracer.unit_sizes[len(commands)] += 1
        return commands[0].command_id

    replica.on_client_request = tracer.span(
        "protocol", replica.on_client_request, unit_request
    )
    replica.on_message = tracer.span(
        "protocol", replica.on_message,
        lambda _src, message: tracer.request_of_message(message),
    )
    replica.on_timer = tracer.span("protocol", replica.on_timer)
    machine = replica.state_machine
    machine.apply = tracer.span(
        "kvstore", machine.apply, lambda command: command.command_id
    )
    replica.log.append = tracer.span(
        "storage", replica.log.append, tracer.request_of_message
    )


def trace_server(tracer: Tracer, server: Any) -> None:
    """Everything :func:`trace_replica` spans, plus the driver and transport
    of one live ``ReplicaServer``."""
    trace_replica(tracer, server.replica)
    transport = server.transport
    local = server.replica_id
    counts = tracer.counts
    inner_send = transport.send

    def counting_send(envelope):
        if envelope.dst != local:
            counts["msgs"] += 1
            counts["msgs." + type(envelope.message).__name__] += 1
        inner_send(envelope)

    transport.send = counting_send
    # The driver registered its bound ``_on_envelope`` with the transport at
    # construction; re-register it wrapped.  This is the one private name the
    # tracer touches — ``Transport`` has no getter for its handler.
    transport.set_handler(
        tracer.span(
            "runtime.driver", server.driver._on_envelope,
            lambda envelope: tracer.request_of_message(envelope.message),
        )
    )


class TimedRegistry:
    """A ``MessageRegistry`` delegate timing the codec calls of ``net.tcp``.

    Passed as ``registry=`` to ``TcpTransport``/``ReplicaServer``.  A frame is
    one ``encode_into`` call (the envelope itself or a batch header); a batch
    header announces how many messages its ``encode_many_into`` carries.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        counts = tracer.counts
        encode_into = tracer.span("net.wire.encode", inner.encode_into)
        encode_many_into = tracer.span("net.wire.encode", inner.encode_many_into)
        self.decode = tracer.span("net.wire.decode", inner.decode)
        self.decode_many = tracer.span("net.wire.decode", inner.decode_many)

        def counted_encode_into(buf, value):
            written = encode_into(buf, value)
            counts["frames"] += 1
            counts["frame_msgs"] += value.get("batch", 1)
            counts["wire_bytes"] += written
            return written

        def counted_encode_many_into(buf, values):
            written = encode_many_into(buf, values)
            counts["wire_bytes"] += written
            return written

        self.encode_into = counted_encode_into
        self.encode_many_into = counted_encode_many_into

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def peak_rss_mb() -> float:
    """The process's high-water resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcWatch:
    """Longest collector pause and full-collection count, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_max_s = 0.0
        self.gen2_count = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_max_s = max(self.pause_max_s, time.perf_counter() - self._started)
        if info.get("generation") == 2:
            self.gen2_count += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *_exc: Any) -> None:
        gc.callbacks.remove(self)
