"""A process imports only what its run executes, and nothing while it runs.

Each case is a fresh interpreter (``sys.modules`` of this one holds the whole
package): the package namespaces, the protocol registry and the backend
table load on demand, so a live Clock-RSM cluster never loads the simulator's
cluster, its workload generator, the baseline protocols or the
multi-process launcher; and everything a run can reach — the recovery and
reconfiguration of a rejoin included — is loaded by the time the cluster is
up, so a timed run pays for no import.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "examples" / "specs" / "recover_with_rejoin.toml"
PACKAGES = sorted(
    ".".join(path.parent.relative_to(ROOT / "src").parts)
    for path in (ROOT / "src" / "repro").rglob("__init__.py")
)

#: Modules a live three-site Clock-RSM cluster has no use for.
NOT_FOR_A_LIVE_CLOCK_RSM_CLUSTER = (
    "repro.sim.cluster",
    "repro.sim.node",
    "repro.workload.generator",
    "repro.protocols.multipaxos",
    "repro.protocols.mencius",
    "repro.launch",
)

_PROBE = r'''
import asyncio, json, sys

def repro_modules():
    return {name for name in sys.modules if name == "repro" or name.startswith("repro.")}

mode, spec_path = sys.argv[1], sys.argv[2]
out = {}

if mode == "cluster":
    from repro.config import ClusterSpec
    from repro.kvstore.commands import encode_put
    from repro.runtime.local import LocalAsyncCluster

    async def main():
        cluster = LocalAsyncCluster("clock-rsm", ClusterSpec.from_sites(["CA", "VA", "IR"]))
        async with cluster:
            for rid in cluster.spec.replica_ids:
                await cluster.submit(rid, encode_put("k", b"v"))
            out["loaded"] = sorted(repro_modules())

    asyncio.run(main())
else:
    from repro.core.reconfig import ReconfigurationManager
    from repro.experiment import Deployment, ExperimentSpec

    handled = set()
    handle = ReconfigurationManager.handle

    def counting_handle(self, src, message):
        actions = handle(self, src, message)
        if actions is not None:
            handled.add(type(message).__name__)
        return actions

    ReconfigurationManager.handle = counting_handle
    spec = ExperimentSpec.from_file(spec_path)
    snapshot = {}
    if mode == "async":
        from repro.runtime.local import LocalAsyncCluster
        from repro.kvstore.commands import encode_put

        enter = LocalAsyncCluster.__aenter__

        async def started_with_one_commit_per_site(cluster):
            await enter(cluster)
            for rid in cluster.spec.replica_ids:
                await cluster.submit(rid, encode_put("probe", b"v"))
            snapshot["modules"] = repro_modules()
            return cluster

        LocalAsyncCluster.__aenter__ = started_with_one_commit_per_site
        deployment = Deployment(spec, backend="async", time_scale=4, submit_timeout=2)
    else:
        from repro.experiment.sim_backend import SimBackend

        prepare = SimBackend.prepare

        def prepared(self, run_spec):
            run = prepare(self, run_spec)
            snapshot["modules"] = repro_modules()
            return run

        SimBackend.prepare = prepared
        deployment = Deployment(spec, backend="sim")
    result = deployment.run()
    out["new_during_run"] = sorted(repro_modules() - snapshot["modules"])
    out["committed"] = result.total_committed
    out["handled"] = sorted(handled)
print(json.dumps(out))
'''


def _python(*args: str) -> str:
    """Standard output of ``python -c *args`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _probe(mode: str) -> dict:
    return json.loads(_python(_PROBE, mode, str(SPEC)).strip().splitlines()[-1])


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_import_repro_loads_only_the_root_and_reaches_submodules_on_access():
    out = _python(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
        "print(repro.sim.cluster.SimulatedCluster is repro.SimulatedCluster)\n"
    )
    assert out.splitlines() == ["['repro']", "True"]


def test_a_live_clock_rsm_cluster_loads_no_simulator_baseline_or_launcher():
    loaded = set(_probe("cluster")["loaded"])
    assert "repro.core.protocol" in loaded  # the probe did build Clock-RSM
    assert sorted(loaded & set(NOT_FOR_A_LIVE_CLOCK_RSM_CLUSTER)) == []


@pytest.mark.parametrize("backend", ["async", "sim"])
def test_a_rejoin_run_imports_nothing_once_the_cluster_is_up(backend):
    run = _probe(backend)
    # The run did reach what it must not import late: a recovery and a
    # reconfiguration that went through SUSPEND and single-decree consensus.
    assert run["committed"] > 0
    assert {"Suspend", "SuspendOk"} <= set(run["handled"])
    assert any(name.startswith("Paxos") for name in run["handled"]), run["handled"]
    assert run["new_during_run"] == []
