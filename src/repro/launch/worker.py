"""The per-replica worker process (``python -m repro.launch.worker``).

One worker runs one replica of the experiment as its own OS process: a
:class:`~repro.runtime.server.ReplicaServer` over a real
:class:`~repro.net.tcp.TcpTransport`, plus the workload clients of its own
site (clients are co-located with their replica so client traffic scales
with the process count instead of funnelling through the supervisor).

The worker is driven entirely by the supervisor over the control channel:

1. connect back (with retry) and send ``hello`` (replica id, token, pid);
2. receive ``setup`` — the full serialized spec, this worker's replica id,
   ``time_scale`` and ``submit_timeout``;
3. bind the replica transport on an ephemeral port and report ``bound``
   (bind-then-report makes port allocation race-free by construction);
4. receive ``peers`` (every replica's bound address), start the replica
   server, report ``running``;
5. receive ``run``, play this site's workload for the spec's warmup plus
   duration (scaled), drain, and ship ``result`` — raw spec-time latencies,
   executed counts, the driver's queue-wait/protocol-time split, and (when
   the spec records history) this site's operation history and the
   replica's apply order;
6. receive ``exit`` and stop cleanly.

A failure in any phase is reported as an ``error`` message (with the
traceback) before the worker exits non-zero; SIGTERM at any point tears the
worker down gracefully.  The spec's latency matrix is *not* injected —
message delay in process mode is the real network stack.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import os
import signal
import sys
import traceback
from typing import Any, Optional

from ..experiment.spec import ExperimentSpec, ProcessesSpec
from ..experiment.walltime import clock_factory, scaled_batching, scaled_protocol_config
from ..net.tcp import TcpTransport
from ..runtime.server import ReplicaServer
from ..workload.apps import state_machine_factory
from ..workload.live import LiveClients
from .control import connect_with_retry, expect, send_json

_LOGGER = logging.getLogger(__name__)


async def _play_site(
    spec: ExperimentSpec,
    server: ReplicaServer,
    site: str,
    time_scale: float,
    submit_timeout: float,
) -> dict[str, Any]:
    """Play this site's share of the workload; return the result payload."""
    rid = server.replica_id
    clients = LiveClients(spec, time_scale, submit_timeout)
    clients.attach(rid, site, server.submit)
    await clients.window()
    await clients.drain()

    payload: dict[str, Any] = {
        "type": "result",
        "site": site,
        "replica_id": rid,
        "latencies_us": clients.collector.latencies_micros(rid),
        "executed": float(server.replica.executed_count),
        "wall_clock_s": clients.wall_clock_s(),
    }
    split = server.driver.latency_split()
    if split is not None:
        payload["split"] = split
    if clients.history is not None:
        payload["history"] = clients.history.to_dict()
        payload["history_started_at"] = clients.started_at
        payload["apply_order"] = [
            [cid.client, cid.seqno] for cid in server.replica.execution_order
        ]
    return payload


async def run_worker(supervisor: str, replica_id: int, token: str) -> None:
    """Run one worker's full conversation with the supervisor."""
    host, _, port = supervisor.rpartition(":")
    reader, writer = await connect_with_retry(host, int(port), timeout=20.0)
    server: Optional[ReplicaServer] = None
    try:
        await send_json(
            writer,
            {"type": "hello", "replica_id": replica_id, "token": token,
             "pid": os.getpid()},
        )
        setup = await expect(reader, "setup", timeout=60.0, who="supervisor")
        spec = ExperimentSpec.from_dict(setup["spec"])
        time_scale = float(setup["time_scale"])
        submit_timeout = float(setup["submit_timeout"])
        processes = spec.processes or ProcessesSpec()

        batching = scaled_batching(spec, time_scale)
        clocks = clock_factory(spec, time_scale)

        transport = TcpTransport(
            replica_id,
            f"{processes.host}:0",
            {},
            batching=batching,
            connect_retries=40,
        )
        await transport.start()
        await send_json(writer, {"type": "bound", "address": transport.bound_address})

        peers = await expect(reader, "peers", timeout=60.0, who="supervisor")
        transport.set_peers({int(r): a for r, a in peers["peers"].items()})

        cluster_spec = spec.cluster_spec()
        site = cluster_spec.replica(replica_id).site
        server = ReplicaServer(
            spec.protocol,
            replica_id,
            cluster_spec,
            state_machine_factory(spec.workload.app)(replica_id),
            transport=transport,
            protocol_config=scaled_protocol_config(spec, time_scale),
            clock=clocks(replica_id) if clocks is not None else None,
            batching=batching,
        )
        await server.start()
        await send_json(writer, {"type": "running"})

        await expect(reader, "run", timeout=120.0, who="supervisor")
        result = await _play_site(spec, server, site, time_scale, submit_timeout)
        await send_json(writer, result)

        await expect(reader, "exit", timeout=120.0, who="supervisor")
    except asyncio.CancelledError:
        _LOGGER.info("worker %s interrupted; shutting down", replica_id)
        raise
    except Exception as exc:
        _LOGGER.error("worker %s failed: %s", replica_id, exc)
        try:
            await send_json(
                writer,
                {"type": "error", "error": str(exc),
                 "traceback": traceback.format_exc()},
            )
        except Exception:  # pragma: no cover - channel already gone
            pass
        raise
    finally:
        if server is not None:
            await server.stop()
        writer.close()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.launch.worker",
        description="One replica process of a multi-process deployment.",
    )
    parser.add_argument("--supervisor", required=True, help="host:port to report to")
    parser.add_argument("--replica-id", type=int, required=True)
    parser.add_argument("--token", required=True, help="deployment token")
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING,
        format=f"worker[{args.replica_id}] %(levelname)s %(name)s: %(message)s",
    )

    async def runner() -> int:
        task = asyncio.ensure_future(
            run_worker(args.supervisor, args.replica_id, args.token)
        )
        loop = asyncio.get_running_loop()
        # A SIGTERM from the supervisor is a polite teardown request: cancel
        # the conversation, let the finally blocks stop the server, exit 0.
        loop.add_signal_handler(signal.SIGTERM, task.cancel)
        try:
            await task
            return 0
        except asyncio.CancelledError:
            return 0
        except Exception:
            return 1

    return asyncio.run(runner())


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
