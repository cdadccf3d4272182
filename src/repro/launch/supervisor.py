"""The deployment supervisor: spawns, drives, and tears down workers.

The supervisor is the only stateful piece of the control plane.  It listens
on an ephemeral control port, spawns one ``python -m repro.launch.worker``
process per replica, and walks every worker through the deployment phases in
lock-step::

    hello   worker → supervisor   (identify: replica id, token, pid)
    setup   supervisor → worker   (full spec + time_scale + submit_timeout)
    bound   worker → supervisor   (the replica transport's real address)
    peers   supervisor → worker   (everyone's address — the port map)
    running worker → supervisor   (replica server started)
    run     supervisor → worker   (start the workload clock, everywhere)
    result  worker → supervisor   (latencies, counts, history, split)
    exit    supervisor → worker   (tear down cleanly)

Port allocation is race-free by construction: each worker binds port 0 and
*reports* the address it got, so the supervisor never guesses a free port.

Every phase has a deadline.  A worker that crashes or stalls mid-phase
surfaces as a :class:`~repro.errors.LaunchError` carrying that worker's
stderr tail — never a hang — and triggers teardown of every other process.
Teardown is escalating: ask politely (``exit`` message), then SIGTERM, then
SIGKILL at the ``shutdown_grace_s`` deadline; the per-worker outcome is
recorded in :attr:`Supervisor.worker_exits` so tests (and the result
metadata) can assert that no process was left behind.
"""

from __future__ import annotations

import asyncio
import logging
import os
import secrets
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import repro

from ..errors import LaunchError
from ..experiment.spec import ExperimentSpec, ProcessesSpec
from ..types import ReplicaId
from .control import read_json, send_json

_LOGGER = logging.getLogger(__name__)

#: How many trailing stderr bytes per worker are kept for error reports.
_STDERR_TAIL = 8192


@dataclass
class _WorkerHandle:
    """Everything the supervisor tracks about one spawned worker."""

    replica_id: ReplicaId
    process: asyncio.subprocess.Process
    connected: asyncio.Future
    reader: Optional[asyncio.StreamReader] = None
    writer: Optional[asyncio.StreamWriter] = None
    stderr_tail: bytearray = field(default_factory=bytearray)

    def tail(self) -> str:
        return self.stderr_tail.decode("utf-8", errors="replace").strip()


class Supervisor:
    """Runs one spec's replicas as separate OS processes and collects results.

    Args:
        spec: The experiment to deploy; ``spec.processes`` (or defaults)
            controls the control-plane host and timeouts.
        time_scale: Same contract as the async backend — delays and durations
            divided on the way in, latencies multiplied back on the way out.
        submit_timeout: Per-command commit timeout inside each worker.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        time_scale: float = 1.0,
        submit_timeout: float = 30.0,
    ) -> None:
        self.spec = spec
        self.processes = spec.processes or ProcessesSpec()
        self.time_scale = time_scale
        self.submit_timeout = submit_timeout
        self.token = secrets.token_hex(8)
        #: replica id → {"exit": "clean"|"exited"|"sigterm"|"sigkill",
        #: "returncode": int} — filled during teardown; tests assert on it.
        self.worker_exits: dict[ReplicaId, dict[str, Any]] = {}
        self._handles: dict[ReplicaId, _WorkerHandle] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._stderr_tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------------
    # Control listener and spawning
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Accept a worker's ``hello`` and hand the stream to its handle."""
        try:
            hello = await read_json(reader, timeout=30.0, who="a connecting worker")
        except LaunchError as exc:
            _LOGGER.warning("rejecting control connection: %s", exc)
            writer.close()
            return
        rid = hello.get("replica_id")
        handle = self._handles.get(rid)
        if (
            hello.get("type") != "hello"
            or hello.get("token") != self.token
            or handle is None
            or handle.connected.done()
        ):
            _LOGGER.warning("rejecting unexpected hello: %r", hello)
            writer.close()
            return
        handle.reader = reader
        handle.writer = writer
        handle.connected.set_result(None)

    async def _drain_stderr(self, handle: _WorkerHandle) -> None:
        assert handle.process.stderr is not None
        while True:
            chunk = await handle.process.stderr.read(4096)
            if not chunk:
                return
            handle.stderr_tail.extend(chunk)
            if len(handle.stderr_tail) > _STDERR_TAIL:
                del handle.stderr_tail[: len(handle.stderr_tail) - _STDERR_TAIL]

    async def _spawn(self, address: str, rid: ReplicaId) -> _WorkerHandle:
        env = dict(os.environ)
        # The workers must import the same repro tree the supervisor runs,
        # regardless of how it was put on the path (editable install, test
        # run with PYTHONPATH=src, ...).
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.launch.worker",
            "--supervisor",
            address,
            "--replica-id",
            str(rid),
            "--token",
            self.token,
            env=env,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
        )
        handle = _WorkerHandle(
            replica_id=rid,
            process=process,
            connected=asyncio.get_running_loop().create_future(),
        )
        self._stderr_tasks.append(asyncio.create_task(self._drain_stderr(handle)))
        return handle

    # ------------------------------------------------------------------
    # Phase driving
    # ------------------------------------------------------------------

    def _who(self, rid: ReplicaId) -> str:
        return f"worker {rid}"

    def _fail(self, rid: ReplicaId, why: str) -> LaunchError:
        handle = self._handles.get(rid)
        tail = handle.tail() if handle is not None else ""
        detail = f"{why}"
        if handle is not None and handle.process.returncode is not None:
            detail += f" (process exited with code {handle.process.returncode})"
        if tail:
            detail += f"\n--- worker {rid} stderr ---\n{tail}"
        return LaunchError(detail)

    async def _await_hello(self, handle: _WorkerHandle, timeout: float) -> None:
        rid = handle.replica_id
        waiters = {
            asyncio.ensure_future(handle.connected): "connected",
            asyncio.ensure_future(handle.process.wait()): "died",
        }
        done, pending = await asyncio.wait(
            waiters, timeout=timeout, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        outcomes = {waiters[task] for task in done}
        if "connected" in outcomes:
            return
        if "died" in outcomes:
            raise self._fail(rid, f"worker {rid} exited before connecting")
        raise self._fail(
            rid, f"worker {rid} did not connect within {timeout} s"
        )

    async def _expect_all(
        self, kind: str, timeout: float
    ) -> dict[ReplicaId, dict[str, Any]]:
        """Read one *kind* message from every worker, concurrently."""

        async def one(handle: _WorkerHandle) -> dict[str, Any]:
            assert handle.reader is not None
            message = await read_json(
                handle.reader, timeout=timeout, who=self._who(handle.replica_id)
            )
            if message["type"] == "error":
                detail = message.get("traceback") or message.get("error", "?")
                raise self._fail(
                    handle.replica_id, f"worker {handle.replica_id} failed: {detail}"
                )
            if message["type"] != kind:
                raise self._fail(
                    handle.replica_id,
                    f"expected {kind!r} from worker {handle.replica_id}, "
                    f"got {message['type']!r}",
                )
            return message

        results = await asyncio.gather(
            *(one(handle) for handle in self._handles.values()),
            return_exceptions=True,
        )
        messages: dict[ReplicaId, dict[str, Any]] = {}
        for handle, outcome in zip(self._handles.values(), results):
            if isinstance(outcome, LaunchError):
                raise outcome
            if isinstance(outcome, BaseException):
                raise self._fail(
                    handle.replica_id,
                    f"worker {handle.replica_id} control failure: {outcome}",
                ) from outcome
            messages[handle.replica_id] = outcome
        return messages

    async def _send(self, handle: _WorkerHandle, message: dict[str, Any]) -> None:
        """Send one control message; a dead worker's stderr joins the error."""
        assert handle.writer is not None
        try:
            await send_json(handle.writer, message, who=self._who(handle.replica_id))
        except LaunchError as exc:
            raise self._fail(handle.replica_id, str(exc)) from exc

    async def _send_all(self, message: dict[str, Any]) -> None:
        for handle in self._handles.values():
            await self._send(handle, message)

    # ------------------------------------------------------------------
    # The deployment itself
    # ------------------------------------------------------------------

    async def run(self) -> dict[ReplicaId, dict[str, Any]]:
        """Deploy, run the workload, and return every worker's result payload.

        Always tears every spawned process down before returning or raising.
        """
        spec = self.spec
        startup = self.processes.startup_timeout_s
        host = self.processes.host
        self._server = await asyncio.start_server(self._handle_connection, host, 0)
        port = self._server.sockets[0].getsockname()[1]
        address = f"{host}:{port}"
        try:
            for rid in spec.cluster_spec().replica_ids:
                self._handles[rid] = await self._spawn(address, rid)
            await asyncio.gather(
                *(self._await_hello(h, startup) for h in self._handles.values())
            )

            spec_dict = spec.to_dict()
            for rid, handle in self._handles.items():
                await self._send(
                    handle,
                    {
                        "type": "setup",
                        "spec": spec_dict,
                        "replica_id": rid,
                        "time_scale": self.time_scale,
                        "submit_timeout": self.submit_timeout,
                    },
                )

            bound = await self._expect_all("bound", startup)
            peers = {str(rid): message["address"] for rid, message in bound.items()}
            await self._send_all({"type": "peers", "peers": peers})
            await self._expect_all("running", startup)

            await self._send_all({"type": "run"})
            # The run phase deadline: the scaled workload window plus the
            # drain timeout plus startup-grade slack for result marshalling.
            run_timeout = (
                (spec.warmup_s + spec.duration_s) / self.time_scale
                + self.submit_timeout
                + startup
            )
            results = await self._expect_all("result", run_timeout)
            return results
        finally:
            await self._teardown()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    async def _teardown(self) -> None:
        """Escalating teardown: exit message → SIGTERM → SIGKILL.

        Records each worker's outcome in :attr:`worker_exits`; after this
        returns, every spawned process has been reaped (no orphans).
        """
        grace = self.processes.shutdown_grace_s
        for handle in self._handles.values():
            if handle.writer is not None and not handle.writer.is_closing():
                try:
                    await send_json(handle.writer, {"type": "exit"})
                except LaunchError:
                    pass

        async def reap(handle: _WorkerHandle) -> None:
            process = handle.process
            rid = handle.replica_id
            try:
                await asyncio.wait_for(process.wait(), grace)
                kind = "clean" if process.returncode == 0 else "exited"
                self.worker_exits[rid] = {
                    "exit": kind, "returncode": process.returncode
                }
                return
            except asyncio.TimeoutError:
                pass
            try:
                process.terminate()
                await asyncio.wait_for(process.wait(), grace)
                self.worker_exits[rid] = {
                    "exit": "sigterm", "returncode": process.returncode
                }
                return
            except asyncio.TimeoutError:
                pass
            except ProcessLookupError:
                self.worker_exits[rid] = {
                    "exit": "exited", "returncode": process.returncode
                }
                return
            try:
                process.kill()
            except ProcessLookupError:
                pass
            await process.wait()
            self.worker_exits[rid] = {
                "exit": "sigkill", "returncode": process.returncode
            }

        if self._handles:
            await asyncio.gather(*(reap(h) for h in self._handles.values()))
        for task in self._stderr_tasks:
            if not task.done():
                task.cancel()
        await asyncio.gather(*self._stderr_tasks, return_exceptions=True)
        self._stderr_tasks.clear()
        for handle in self._handles.values():
            if handle.writer is not None:
                handle.writer.close()
            if not handle.connected.done():
                handle.connected.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


__all__ = ["Supervisor"]
