#!/usr/bin/env python3
"""The repository's benchmark: ``python3 perf/run.py``.

    python3 perf/run.py                          # every workload, end to end
    python3 perf/run.py --trace                  # every workload, per layer
    python3 perf/run.py --workload tcp3_open --seed 7 --seconds 10 --trace 0   # as the driver calls it
    python3 perf/run.py --set base --repeats 5   # build a result set
    python3 perf/run.py --compare base change    # A/B two result sets

Every metric is printed by name with its unit, value and sample count: the
seven end-to-end metrics (those ``BENCHMARK.json`` declares, then the ones
``perf/gates.json`` lists as ``also_printed``), or with ``--trace`` every
per-layer metric.  Outputs are verified; the exit code is non-zero when any
correctness check fails.  The last line of standard output is the last run
as one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``) with
the metrics ``BENCHMARK.json`` declares.

This process never imports ``repro``: each workload runs in a fresh child
(``perfkit.child``) so that ``setup_s`` includes the import and no run
inherits another's heap.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

from perfkit import compare

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
RESULTS = PERF / "results"
MAX_BATCH = 64
#: Extra set-up-only children per end-to-end run; ``setup_s`` is the median.
SETUP_PROBES = 6
#: The traced window, and its untraced reference, as a share of ``--seconds``.
TRACE_WINDOW_SHARE = 5.0 / 12.0
CHILD_TIMEOUT_S = 170.0


def load_contract() -> tuple[dict[str, Any], dict[str, Any]]:
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        gates = json.loads((PERF / "gates.json").read_text())
    except OSError as exc:
        sys.exit(f"perf/run.py: cannot read the benchmark's contract: {exc}")
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perf/run.py: the program under test is missing ({SRC}/repro)")
    return bench, gates


def child(workload: str, seed: int, seconds: float, clients: int, *flags: str) -> dict[str, Any]:
    """Run one ``perfkit.child`` to completion and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(PERF)])
    command = [
        sys.executable, "-m", "perfkit.child", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--clients", str(clients), *flags,
    ]
    done = subprocess.run(
        command, cwd=PERF, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0 or not done.stdout.strip():
        sys.exit(f"perf/run.py: {' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict[str, Any]:
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    cpus = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": cpus,
        "seed": seed,
        "loadavg_before": load,
        # A host already busier than one spare core cannot repeat a number.
        "noisy_host": load > cpus - 0.5,
    }


def one_run(
    bench: dict[str, Any], gates: dict[str, Any], workload: str, seed: int,
    seconds: float, trace: bool, clients: int, iso_cache: dict[int, dict], corrupt: bool,
) -> dict[str, Any]:
    """One run of one workload: the children it takes, folded into a record."""
    record = provenance(seed)
    flags = ["--corrupt"] if corrupt else []
    values: dict[str, list]
    if trace:
        window = seconds * TRACE_WINDOW_SHARE
        trace_path = RESULTS / f"trace_{workload}.jsonl"
        RESULTS.mkdir(exist_ok=True)
        main = child(workload, seed, window, clients, "--trace",
                     "--trace-path", str(trace_path), *flags)
        values = main["values"]
        overhead = 0.0
        if workload.endswith("_closed") and main["correct"]:
            # Same seed, same window, tracer off: what the tracing itself costs.
            plain = child(workload, seed, window, clients)
            overhead = 1.0 - (
                values["throughput_ops_s"][0] / plain["values"]["throughput_ops_s"][0]
            )
        values["trace.overhead_share"] = [overhead, 1]
        if seed not in iso_cache:
            iso_cache[seed] = child("iso", seed, window, clients)["values"]
        values.update(iso_cache[seed])
        printed = bench["per_layer"]
    else:
        main = child(workload, seed, seconds, clients, *flags)
        setups = [main["setup_s"]] + [
            child(workload, seed, seconds, clients, "--setup-only")["setup_s"]
            for _ in range(round(SETUP_PROBES * min(1.0, seconds / bench["run_seconds"])))
        ]
        values = main["values"]
        # (value, n, observed) like every end-to-end value; see ``metric_of``.
        values["setup_s"] = [
            statistics.median(s[0] for s in setups), len(setups),
            statistics.median(s[2] for s in setups),
        ]
        printed = bench["end_to_end"] + [
            dict(spec, name=name) for name, spec in gates["also_printed"].items()
        ]

    problems = list(main["problems"])
    pinned = gates["pinned"].get(workload, {})
    # The counts are a function of (seed, seconds); only that pair is pinned.
    pinned_checked = not trace and (seed, seconds) == (pinned.get("seed"), pinned.get("seconds"))
    if pinned_checked and not corrupt and main["counts"] != pinned["counts"]:
        problems.append(
            f"{workload}: event/commit counts {main['counts']} differ from the "
            "values pinned in perf/gates.json (behaviour changed)"
        )
    correct = not problems
    failed = main["failed"] if correct else main["attempted"]
    values["failed_share"] = [failed / max(main["attempted"], 1), main["attempted"]]
    record.update(
        workload=workload, seconds=seconds, trace=trace,
        correct=correct, problems=problems,
        attempted=main["attempted"], failed=failed,
        metrics={m["name"]: metric_of(values, m) for m in printed},
        flags=main["flags"], counts=main.get("counts"), pinned_checked=pinned_checked,
        event_loop=main["event_loop"], teardown_errors=main["teardown_errors"],
        loadavg_after=os.getloadavg()[0],
    )
    return record


def metric_of(values: dict[str, list], declared: dict[str, Any]) -> dict[str, Any]:
    """One metric of a run's record.  A child gives ``(value, n)`` or, for a
    timing it reports at reference host speed (perfkit.stats.at_reference),
    ``(value, n, observed)``; what does not apply to a workload reads 0 with
    no samples."""
    value, n, *observed = values.get(declared["name"], (0.0, 0))
    metric = {"value": value, "n": n, "unit": declared["unit"]}
    if observed and observed[0] != value:
        metric["observed"] = observed[0]
    return metric


def report(record: dict[str, Any]) -> None:
    workload = record["workload"]
    print(f"== {workload}  seed={record['seed']}  seconds={record['seconds']:g}  "
          f"trace={int(record['trace'])}  python={record['python']}  "
          f"cpus={record['cpu_count']}  sha={record['git_sha'][:12]}")
    for name, metric in record["metrics"].items():
        observed = f" observed={metric['observed']:.6g}" if "observed" in metric else ""
        print(f"metric {workload} {name} {metric['value']:.6g} {metric['unit']} "
              f"n={metric['n']}{observed}")
    print(f"checked {workload} correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} teardown_errors={record['teardown_errors']}")
    if record["counts"] and not record["pinned_checked"]:
        print(f"note {workload}: event/commit counts are pinned for the untraced run of the "
              "default seed at run_seconds only; this run's were not compared")
    for problem in record["problems"]:
        print(f"PROBLEM {workload}: {problem}")
    flags = list(record["flags"]) + (["noisy_host"] if record["noisy_host"] else [])
    if flags:
        print(f"flags {workload}: {' '.join(flags)}")


def contract_line(bench: dict[str, Any], record: dict[str, Any]) -> str:
    declared = bench["per_layer" if record["trace"] else "end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in declared
        },
    })


def save(set_name: Optional[str], records: list[dict[str, Any]]) -> None:
    """Write ``perf/results/<set>/<workload>.json``.

    A named set accumulates runs across invocations (A/B pairs alternate
    checkouts); the default set ``last`` holds only the latest invocation.
    """
    directory = RESULTS / (set_name or "last")
    directory.mkdir(parents=True, exist_ok=True)
    for workload in {r["workload"] for r in records}:
        path = directory / f"{workload}.json"
        runs = []
        if set_name and path.exists():
            runs = json.loads(path.read_text())["runs"]
        runs += [r for r in records if r["workload"] == workload]
        path.write_text(json.dumps({"workload": workload, "runs": runs}, indent=1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, help="workload seed (default: gates.json's)")
    parser.add_argument("--seconds", type=float,
                        help="timed window (default: BENCHMARK.json's run_seconds; "
                             "the smoke test uses 1)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
                        help="per-layer pass: tracer installed, isolated micro-timers")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--clients", type=int, default=100,
                        help="closed-loop population per site")
    parser.add_argument("--set", dest="set_name", help="result set to append the runs to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result sets (names or directories)")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bench, gates = load_contract()
    if args.compare:
        return compare.main(RESULTS, bench, gates, *args.compare)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.clients < 1 or args.clients % MAX_BATCH == 0:
        # 64 clients against max_batch = 64 lock into waves of exactly one
        # batch and real-TCP throughput turns bimodal (README, "lockstep").
        parser.error(
            f"--clients {args.clients} is a multiple of max_batch = {MAX_BATCH}: a "
            "closed-loop population aligned with the batch size measures lockstep"
        )
    seconds = float(args.seconds or bench["run_seconds"])
    seed = gates["default_seed"] if args.seed is None else args.seed

    records = []
    iso_cache: dict[int, dict] = {}
    for workload in [args.workload] if args.workload else names:
        for repeat in range(args.repeats):
            record = one_run(bench, gates, workload, seed + repeat, seconds,
                             bool(args.trace), args.clients, iso_cache, args.corrupt)
            report(record)
            records.append(record)
    save(args.set_name, records)
    print(contract_line(bench, records[-1]))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
