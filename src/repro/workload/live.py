"""The live client engine shared by the ``async`` and ``proc`` backends.

One :class:`LiveClients` plays a spec's workload as asyncio tasks.  Its only
seam to the cluster is a per-site ``submit`` coroutine
(:meth:`repro.runtime.server.ReplicaServer.submit` in a deployment, a stub in
tests): the in-process backend attaches every site to one engine, a ``proc``
worker attaches its own site, so both play the identical client model — same
per-client seeded streams, same pipelining, same measurement-window cutoff.

Time is wall time divided by ``time_scale``: think times and the run window
shrink by it and recorded timestamps are multiplied back, so latencies and
history times are spec-time microseconds like the simulator's.  The simulator
itself keeps its callback clients (:mod:`repro.workload.generator`): they
draw from the environment's one random stream in event order, which is what
its pinned results are made of.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import TYPE_CHECKING, Any, Awaitable, Callable

from ..checker.history import OpHistory
from ..errors import RequestTimeout
from ..metrics.collector import LatencyCollector
from ..types import Command, CommandId, ReplicaId
from .apps import payload_factory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiment imports us)
    from ..experiment.spec import ExperimentSpec

#: ``await submit(command, timeout=seconds)`` returns the command's output or
#: raises :class:`~repro.errors.RequestTimeout`.
Submit = Callable[..., Awaitable[Any]]


class LiveClients:
    """A spec's client population as asyncio tasks (create inside the loop).

    ``submit_timeout`` is the per-command commit timeout in wall seconds, and
    how long :meth:`drain` lets in-flight commands finish.
    """

    def __init__(self, spec: "ExperimentSpec", time_scale: float, submit_timeout: float) -> None:
        self._spec = spec
        self._time_scale = time_scale
        self._submit_timeout = submit_timeout
        self._loop = asyncio.get_running_loop()
        self._started = self._loop.time()
        self._stop = asyncio.Event()
        self._tasks: list[asyncio.Task] = []
        self._uid = itertools.count(1)
        # Null-app payloads are a constant; one shared bytes object instead
        # of a fresh allocation per command.
        null_payload = bytes(spec.workload.payload_size)
        app_payloads = payload_factory(spec.workload.app, spec.workload.payload_size)
        self._make_payload = app_payloads or (lambda _rng: null_payload)
        self.collector = LatencyCollector(warmup_until=spec.warmup_micros)
        self.history = OpHistory() if spec.record_history else None

    @property
    def started_at(self) -> float:
        """The loop time, in seconds, that :meth:`virtual_micros` counts from.

        The default loop's clock is ``time.monotonic()``, one clock for every
        process on a host, so engines in several processes can be put on
        one timeline.
        """
        return self._started

    def virtual_micros(self) -> int:
        """Wall time since the engine was created, as spec-time microseconds."""
        return int((self._loop.time() - self._started) * self._time_scale * 1_000_000)

    def wall_clock_s(self) -> float:
        return round(self._loop.time() - self._started, 3)

    def attach(self, rid: ReplicaId, site: str, submit: Submit) -> None:
        """Start the clients the workload places at *site*, if any."""
        population = self._spec.workload.population(site)
        if population is not None:
            count, think = population
            for index in range(count):
                self._tasks.append(
                    asyncio.create_task(self._client(rid, site, index, think, submit))
                )

    async def _run_command(
        self, rid: ReplicaId, name: str, rng: random.Random, submit: Submit
    ) -> None:
        command = Command(CommandId(name, next(self._uid)), self._make_payload(rng))
        history = self.history
        submitted_at = self.virtual_micros()
        if history is not None:
            history.invoke(command.command_id, rid, command.payload, submitted_at)
        try:
            output = await submit(command, timeout=self._submit_timeout)
        except RequestTimeout:
            if history is not None:
                history.fail(command.command_id, self.virtual_micros())
            return
        committed_at = self.virtual_micros()
        if history is not None:
            history.complete(command.command_id, output, committed_at)
        # Commands draining after the measurement window ended would never
        # have committed on the sim backend (it hard-stops at
        # total_runtime_micros); keep the backends comparable.  The submit
        # timestamp is in hand across the await, so the span is recorded
        # directly — no per-command collector dict entry.
        if committed_at <= self._spec.total_runtime_micros:
            self.collector.record_span(rid, submitted_at, committed_at)

    async def _client(
        self, rid: ReplicaId, site: str, index: int, think: bool, submit: Submit
    ) -> None:
        spec = self._spec
        # Deterministic per-client stream (independent of PYTHONHASHSEED).
        rng = random.Random(spec.seed * 1_000_003 + rid * 1_009 + index)
        think_min = spec.workload.think_time_min_ms / 1_000.0 / self._time_scale
        think_max = spec.workload.think_time_max_ms / 1_000.0 / self._time_scale
        # Unique within the run: the spec name, the site and the index.
        name = f"{spec.name}/{site}/client{index}"
        depth = spec.batching.pipeline_depth if spec.batching is not None else 1
        # Loop on the stop event rather than relying on cancellation:
        # Python 3.11's wait_for can swallow a cancellation that races with
        # the commit future resolving, which would leave this loop running
        # (and the run hanging) forever.
        #
        # With depth > 1 the client does not await each commit before
        # issuing the next command: up to `depth` submissions stay in
        # flight concurrently (message pipelining).
        in_flight: set[asyncio.Task] = set()
        try:
            while not self._stop.is_set():
                if think and think_max > 0:
                    await asyncio.sleep(rng.uniform(think_min, think_max))
                if depth == 1:
                    await self._run_command(rid, name, rng, submit)
                    continue
                in_flight.add(asyncio.create_task(self._run_command(rid, name, rng, submit)))
                if len(in_flight) >= depth:
                    done, in_flight = await asyncio.wait(
                        in_flight, return_when=asyncio.FIRST_COMPLETED
                    )
                    # Propagate failures like depth == 1, after reading every
                    # one: an exception never read is logged at collection.
                    failed = [task for task in done if task.exception() is not None]
                    if failed:
                        failed[0].result()
            await _gather_raising(in_flight)
        finally:
            for task in in_flight:
                task.cancel()

    async def window(self) -> None:
        """Let the clients play for warm-up plus duration, then stop issuing."""
        await asyncio.sleep((self._spec.warmup_s + self._spec.duration_s) / self._time_scale)
        self._stop.set()

    async def drain(self) -> None:
        """Let in-flight commands finish, cancel stragglers, surface failures."""
        if not self._tasks:  # attached to no client-hosting site
            return
        _done, pending = await asyncio.wait(self._tasks, timeout=self._submit_timeout)
        for task in pending:
            task.cancel()
        await _gather_raising(self._tasks)


async def _gather_raising(tasks) -> None:
    """Await *tasks*; cancellations are expected (teardown), failures are not.

    A client that died with anything but a cancellation means the run lost
    load it claims to have offered, so the first such exception is re-raised.
    """
    for outcome in await asyncio.gather(*tasks, return_exceptions=True):
        if isinstance(outcome, Exception):
            raise outcome


__all__ = ["LiveClients"]
