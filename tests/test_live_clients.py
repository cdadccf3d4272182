"""The live client engine, driven through its only seam: a stub ``submit``.

No sockets and no replicas: every test hands :class:`LiveClients` a coroutine
in place of ``ReplicaServer.submit`` and observes what the clients do with it.
"""

from __future__ import annotations

import asyncio
import gc
from collections import defaultdict

import pytest

from repro.errors import LaunchError, RequestTimeout
from repro.experiment import BatchingSpec, Deployment, ExperimentSpec, WorkloadSpec
from repro.runtime.server import ReplicaServer
from repro.workload.live import LiveClients

SITES = ("CA", "VA", "IR")


def make_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="live",
        protocol="clock-rsm",
        sites=SITES,
        workload=WorkloadSpec(clients_per_site=2, think_time_max_ms=0.0),
        duration_s=0.2,
        warmup_s=0.0,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class Stub:
    """A recording ``submit``: per-client commands and concurrent submissions."""

    def __init__(self, delay: float = 0.001, outcome=None) -> None:
        self.delay = delay
        self.outcome = outcome  # an exception instance to raise, or None
        self.commands = defaultdict(list)  # client name -> [Command]
        self.in_flight = defaultdict(int)
        self.peak = defaultdict(int)

    async def __call__(self, command, timeout):
        client = command.command_id.client
        self.commands[client].append(command)
        self.in_flight[client] += 1
        self.peak[client] = max(self.peak[client], self.in_flight[client])
        try:
            await asyncio.sleep(self.delay)
            if self.outcome is not None:
                raise self.outcome
            return b"ok"
        finally:
            self.in_flight[client] -= 1


def play(spec: ExperimentSpec, stub, sites=SITES, submit_timeout: float = 1.0) -> LiveClients:
    """Attach *sites* of *spec* to *stub*, run the window, drain."""

    async def scenario() -> LiveClients:
        clients = LiveClients(spec, time_scale=1.0, submit_timeout=submit_timeout)
        for rid, site in enumerate(spec.sites):
            if site in sites:
                clients.attach(rid, site, stub)
        await clients.window()
        await clients.drain()
        return clients

    return asyncio.run(scenario())


class TestPopulation:
    def test_balanced_places_clients_per_site_at_every_site(self):
        stub = Stub()
        play(make_spec(), stub)
        assert sorted(stub.commands) == [
            f"live/{site}/client{i}" for site in sorted(SITES) for i in range(2)
        ]

    def test_imbalanced_populates_only_the_origin_site(self):
        workload = WorkloadSpec(
            scenario="imbalanced", origin_site="VA", clients_per_site=3, think_time_max_ms=0.0
        )
        stub = Stub()
        clients = play(make_spec(workload=workload), stub)
        assert sorted(stub.commands) == [f"live/VA/client{i}" for i in range(3)]
        assert clients.collector.count(1) == clients.collector.count() > 0

    def test_saturating_uses_outstanding_per_site_clients_that_never_think(self):
        # A 5 s think time would leave a thinking client idle for the whole
        # 0.2 s window; saturating clients ignore it.
        thinking = dict(think_time_min_ms=5_000.0, think_time_max_ms=5_000.0)
        stub = Stub()
        play(make_spec(workload=WorkloadSpec(clients_per_site=2, **thinking)), stub)
        assert not stub.commands

        saturating = WorkloadSpec(scenario="saturating", outstanding_per_site=5, **thinking)
        # Replies come at the next loop tick rather than after a 1 ms timer,
        # so a loaded host still fits far more than 10 per client in the window.
        stub = Stub(delay=0)
        play(make_spec(workload=saturating), stub)
        assert len(stub.commands) == 5 * len(SITES)
        assert all(len(commands) > 10 for commands in stub.commands.values())

    def test_an_engine_attached_to_no_site_runs_and_drains(self):
        # A proc worker at a site the imbalanced workload leaves empty.
        clients = play(make_spec(record_history=True), Stub(), sites=())
        assert clients.collector.count() == 0
        assert len(clients.history) == 0


class TestPipelining:
    @pytest.mark.parametrize("depth", [1, 4])
    def test_in_flight_reaches_and_never_exceeds_pipeline_depth(self, depth):
        spec = make_spec(batching=BatchingSpec(max_batch=8, pipeline_depth=depth))
        stub = Stub(delay=0.005)
        play(spec, stub)
        assert len(stub.peak) == 2 * len(SITES)
        assert set(stub.peak.values()) == {depth}


class TestMeasurement:
    def test_timeout_fails_the_history_op_and_records_no_sample(self):
        stub = Stub(outcome=RequestTimeout("no commit"))
        clients = play(make_spec(record_history=True), stub)
        assert clients.collector.count() == 0
        assert len(clients.history) > 0
        assert clients.history.count("fail") == len(clients.history)

    def test_commit_after_the_window_completes_the_op_without_a_sample(self):
        # Every command takes 0.3 s; the window closes at 0.2 s.
        stub = Stub(delay=0.3)
        clients = play(make_spec(record_history=True), stub)
        assert clients.collector.count() == 0
        assert clients.history.count("ok") == len(clients.history) == 2 * len(SITES)
        assert all(op.returned_at > 200_000 for op in clients.history.ops)

    def test_warmup_samples_are_dropped(self):
        spec = make_spec(warmup_s=0.1, duration_s=0.1, record_history=True)
        clients = play(spec, Stub())
        measured = [
            op
            for op in clients.history.ops
            if op.invoked_at >= 100_000 and op.returned_at <= 200_000
        ]
        assert any(op.invoked_at < 100_000 for op in clients.history.ops)
        assert clients.collector.count() == len(measured) > 0
        assert all(0 < v < 100_000 for v in clients.collector.latencies_micros(0))

    def test_same_seed_rid_and_index_emit_the_same_payload_stream(self):
        first, second, reseeded = Stub(), Stub(), Stub()
        play(make_spec(), first)
        play(make_spec(), second)
        play(make_spec(seed=6), reseeded)
        for client, commands in first.commands.items():
            n = min(len(commands), len(second.commands[client]))
            assert n > 10
            payloads = [c.payload for c in commands[:n]]
            assert payloads == [c.payload for c in second.commands[client][:n]]
            assert payloads != [c.payload for c in reseeded.commands[client][:n]]
        streams = [tuple(c.payload for c in cs[:10]) for cs in first.commands.values()]
        assert len(set(streams)) == len(streams)  # every client has its own


class TestDeadClient:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_a_client_exception_is_raised_after_the_drain(self, depth, caplog):
        spec = make_spec(batching=BatchingSpec(max_batch=8, pipeline_depth=depth))
        with pytest.raises(RuntimeError, match="boom"):
            play(spec, Stub(outcome=RuntimeError("boom")))
        # Every failed command is retrieved: none is left for the collector
        # to log as "Task exception was never retrieved".
        gc.collect()
        assert "never retrieved" not in caplog.text

    def test_async_deployment_does_not_return_a_result_with_the_load_missing(self, monkeypatch):
        async def broken_submit(self, command, timeout=None):
            raise RuntimeError("submit is broken")

        monkeypatch.setattr(ReplicaServer, "submit", broken_submit)
        with pytest.raises(RuntimeError, match="submit is broken"):
            Deployment(make_spec(), backend="async", time_scale=10).run()

    def test_proc_worker_reports_it_to_the_supervisor(self, tmp_path, monkeypatch):
        # Workers are fresh interpreters: break their ReplicaServer.submit
        # through a sitecustomize module on the PYTHONPATH they inherit.
        (tmp_path / "sitecustomize.py").write_text(
            "from repro.runtime.server import ReplicaServer\n"
            "async def broken_submit(self, command, timeout=None):\n"
            "    raise RuntimeError('submit is broken')\n"
            "ReplicaServer.submit = broken_submit\n"
        )
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        with pytest.raises(LaunchError, match="submit is broken"):
            Deployment(make_spec(), backend="proc", time_scale=1).run()
