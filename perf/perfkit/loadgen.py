"""Seeded load generators for the live workloads.

Inputs come from ``--seed`` alone: the payload pool, every closed-loop
client's operation stream and every open-loop site's Poisson arrival
schedule are drawn from ``random.Random`` instances derived from it, never
from the clock.  The system under test only ever sees ``Command`` objects.

Generators run as coroutines in the workload's own event loop and call
``ReplicaServer.submit`` directly.  Each operation leaves one ``OpSample``
row; latency, throughput, the failure count and the checker's history are
all derived from those rows after the run, off the timed path.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from array import array
from typing import Any, NamedTuple, Optional

from repro.errors import ReproError
from repro.kvstore.commands import encode_get, encode_put
from repro.types import Command, CommandId

KEYS = 1024
VALUE_BYTES = 64
#: Distinct values per key in the PUT pool: enough that a stale or misplaced
#: read returns bytes the model does not expect.
VALUES_PER_KEY = 8
SUBMIT_TIMEOUT_S = 10.0


class OpSample(NamedTuple):
    """One operation as the generator saw it (times from ``perf_counter``)."""

    command_id: CommandId
    replica_id: int
    payload: bytes
    due: float  #: when it was due (open loop) or submitted (closed loop)
    sent: float  #: when ``submit`` was actually called
    replied: Optional[float]  #: ``None``: timed out, refused or never replied
    output: Any


def payload_pool(seed: int) -> list[bytes]:
    """Encoded 50/50 put/get payloads over ``KEYS`` keys, ``VALUE_BYTES`` values.

    Half the pool is GETs (each key ``VALUES_PER_KEY`` times), half PUTs with
    seeded random values, so a uniform draw is a 50/50 mix over uniform keys.
    """
    rng = random.Random(seed)
    pool: list[bytes] = []
    for key_index in range(KEYS):
        key = f"key-{key_index}"
        get = encode_get(key)
        for _ in range(VALUES_PER_KEY):
            pool.append(encode_put(key, rng.randbytes(VALUE_BYTES)))
            pool.append(get)
    return pool


class Load:
    """Shared state of one workload's generators.

    Samples are kept in flat arrays while the system runs: a list of half a
    million tuples would make every full garbage collection scan the
    benchmark's own heap and charge the pause to the system under test.
    """

    def __init__(self, seed: int, pool: list[bytes]) -> None:
        self.seed = seed
        self.pool = pool
        self.stopped = False
        self.tasks: list[asyncio.Task] = []
        self.clients: list[tuple[str, int]] = []  #: (name, replica id) by client index
        self._client = array("i")
        self._seqno = array("q")
        self._payload = array("i")
        self._due = array("d")
        self._sent = array("d")
        self._replied = array("d")  #: NaN = failed
        self._outputs: list[Any] = []

    def rng(self, replica_id: int, index: int) -> random.Random:
        """Deterministic per-generator stream (independent of PYTHONHASHSEED)."""
        return random.Random(self.seed * 1_000_003 + replica_id * 1_009 + index)

    def client(self, name: str, replica_id: int) -> int:
        self.clients.append((name, replica_id))
        return len(self.clients) - 1

    async def run_op(self, server: Any, client: int, seqno: int, payload: int,
                     due: float) -> None:
        """Submit one command and record what happened to it."""
        command = Command(CommandId(self.clients[client][0], seqno), self.pool[payload])
        sent = time.perf_counter()
        replied, output = math.nan, None
        try:
            output = await server.submit(command, timeout=SUBMIT_TIMEOUT_S)
            replied = time.perf_counter()
        except ReproError:
            pass  # timed out or refused: recorded as failed
        finally:
            # Also reached when the drain cancels a straggler (failed too).
            self._client.append(client)
            self._seqno.append(seqno)
            self._payload.append(payload)
            self._due.append(due)
            self._sent.append(sent)
            self._replied.append(replied)
            self._outputs.append(output)

    def samples(self) -> list[OpSample]:
        """The recorded operations as rows (build after the run, not during)."""
        rows = []
        for client, seqno, payload, due, sent, replied, output in zip(
            self._client, self._seqno, self._payload, self._due, self._sent,
            self._replied, self._outputs,
        ):
            name, replica_id = self.clients[client]
            rows.append(OpSample(
                CommandId(name, seqno), replica_id, self.pool[payload], due, sent,
                None if math.isnan(replied) else replied, output,
            ))
        return rows

    # -- closed loop -------------------------------------------------------

    async def closed_client(self, server: Any, site: str, index: int) -> None:
        """One client: next request only after the previous one replied."""
        rng = self.rng(server.replica_id, index)
        size = len(self.pool)
        client = self.client(f"{site}/c{index}", server.replica_id)
        seqno = 0
        while not self.stopped:
            seqno += 1
            await self.run_op(
                server, client, seqno, rng.randrange(size), time.perf_counter()
            )

    def start_closed(self, servers: dict[str, Any], clients_per_site: int) -> None:
        for site, server in servers.items():
            for index in range(clients_per_site):
                self.tasks.append(
                    asyncio.create_task(self.closed_client(server, site, index))
                )

    # -- open loop ---------------------------------------------------------

    async def open_site(self, server: Any, site: str, rate: float, start: float,
                        segments: tuple[float, ...]) -> None:
        """Poisson arrivals at *rate*/s, conditioned on their count.

        Each segment (warm-up, timed window) of ``d`` seconds gets exactly
        ``round(rate * d)`` arrivals at seeded uniform instants — a Poisson
        process given its count — so the number attempted in the window is
        the same for every seed and run.  An operation is timed from its due
        time, so a stalled loop charges its stall to every arrival it delayed.
        """
        rng = self.rng(server.replica_id, 0)
        size = len(self.pool)
        client = self.client(f"{site}/open", server.replica_id)
        offsets, begin = [], 0.0
        for duration in segments:
            offsets += sorted(
                begin + rng.random() * duration for _ in range(round(rate * duration))
            )
            begin += duration
        for seqno, offset in enumerate(offsets, start=1):
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            if self.stopped:
                return
            self.tasks.append(asyncio.create_task(
                self.run_op(server, client, seqno, rng.randrange(size), due)
            ))

    def start_open(self, servers: dict[str, Any], rate: float, start: float,
                   segments: tuple[float, ...]) -> None:
        for site, server in servers.items():
            self.tasks.append(asyncio.create_task(
                self.open_site(server, site, rate, start, segments)
            ))

    # -- drain -------------------------------------------------------------

    async def drain(self) -> None:
        """Stop issuing, wait for in-flight operations, cancel stragglers."""
        self.stopped = True
        tasks = self.tasks
        # Open-loop site tasks may still append operation tasks while we wait.
        while True:
            pending = [task for task in tasks if not task.done()]
            if not pending:
                break
            _done, late = await asyncio.wait(pending, timeout=SUBMIT_TIMEOUT_S + 2.0)
            for task in late:
                task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
