"""Smoke tests: the example applications run end-to-end.

Each example is executed in a subprocess exactly as a user would run it
(with reduced workload sizes where the script accepts arguments), and its
output is checked for the expected markers.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    env_path = f"{SRC_DIR}"
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stdout}\n{result.stderr}"
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "hello geo-world" in output
        assert "state is consistent" in output

    def test_latency_explorer(self):
        output = run_example("latency_explorer.py", "--sites", "CA", "VA", "IR", "JP", "SG")
        assert "Expected commit latency" in output
        assert "Clock-RSM" in output

    def test_latency_explorer_three_sites_prefers_paxos_bcast(self):
        output = run_example("latency_explorer.py", "--sites", "CA", "VA", "IR")
        assert "Paxos-bcast" in output

    def test_failover_reconfiguration(self):
        output = run_example("failover_reconfiguration.py")
        assert "reconfigured to epoch 1" in output
        assert "all replicas agree" in output

    def test_live_asyncio_cluster(self):
        output = run_example("live_asyncio_cluster.py", "--scale", "50")
        assert "identical state machines everywhere" in output

    @pytest.mark.slow
    def test_geo_replicated_store_quick(self):
        output = run_example(
            "geo_replicated_store.py", "--seconds", "2", "--clients", "3", timeout=300
        )
        assert "Per-site commit latency" in output
        assert "clock-rsm" in output
