"""Smoke test of the benchmark itself (collected by the tier-1 command).

Checks the contract between ``BENCHMARK.json`` and what ``perf/run.py``
prints, that every workload runs and verifies at a tenth of its length
(``--seconds 1``), that the simulator workload repeats exactly, and that a
wrong apply order fails the run.  No assertion here depends on how fast
anything ran.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GATES = json.loads((PERF / "gates.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
#: The issue's end-to-end metrics the schema of BENCHMARK.json cannot hold.
ALSO_PRINTED = list(GATES["also_printed"])

for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )


def printed_names(stdout: str, workload: str) -> list[str]:
    prefix = f"metric {workload} "
    return [line.split()[2] for line in stdout.splitlines() if line.startswith(prefix)]


def contract_line(stdout: str) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_declared_names_are_well_formed_and_unique():
    names = WORKLOADS + END_TO_END + ALSO_PRINTED + PER_LAYER
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_verifies_and_prints_what_is_declared(workload):
    done = run("--workload", workload, "--seconds", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    assert printed_names(done.stdout, workload) == END_TO_END + ALSO_PRINTED
    result = contract_line(done.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_pass_prints_every_layer_metric_and_nothing_else():
    done = run("--workload", "sim_geo5", "--seconds", "1", "--trace")
    assert done.returncode == 0, done.stdout + done.stderr
    assert printed_names(done.stdout, "sim_geo5") == PER_LAYER
    assert list(contract_line(done.stdout)["metrics"]) == PER_LAYER


def test_sim_geo5_counts_repeat_exactly():
    from perfkit import simgeo

    def counts() -> dict:
        runs = simgeo.sim_pass(simgeo.sim_prepare(7, 0.1, 0.4))
        return {p: (run["events"], run["commits"]) for p, run in runs.items()}

    first = counts()
    assert first == counts()
    assert all(commits > 0 for _events, commits in first.values())


def test_swapped_apply_order_fails_the_run():
    done = run("--workload", "lan3_closed", "--seconds", "0.2", "--corrupt")
    assert done.returncode != 0
    result = contract_line(done.stdout)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "metric lan3_closed failed_share 1 fraction" in done.stdout


def test_lockstep_population_is_refused():
    done = run("--workload", "lan3_closed", "--clients", "128")
    assert done.returncode != 0
    assert "multiple of max_batch" in done.stderr


def test_tighter_bounds_are_tighter_and_name_declared_pairs():
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    for metric, pairs in GATES["tighter_bounds"].items():
        for workload, bound in pairs.items():
            assert workload in WORKLOADS and bound < bounds[metric], (metric, workload)
