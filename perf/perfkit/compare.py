"""``run.py --compare A B``: one row per gated (metric, workload).

Gated are every end-to-end metric ``BENCHMARK.json`` declares, on every
workload, and the pairs ``perf/gates.json`` adds under ``also_printed``.
The bound by which B's median may be worse than A's is the metric's one
bound from ``BENCHMARK.json`` unless ``gates.json`` gives the pair a tighter
one.  A row reads ``within``, ``worse``, or ``unresolved`` when either side's
own run-to-run spread (inter-quartile distance over the median) is wider
than the bound — a difference that cannot be told from noise is not
reported as "unchanged".
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Optional

from .stats import quartiles, spread_share


def load_set(results: Path, name: str) -> dict[str, list[dict[str, Any]]]:
    """Untraced runs by workload of a result set given by name or directory.

    Runs on a noisy host are left out, and so are traced runs: their window
    is shorter and the tracer is in it.
    """
    directory = Path(name) if Path(name).is_dir() else results / name
    runs = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        runs[data["workload"]] = [
            run for run in data["runs"] if not run["trace"] and not run["noisy_host"]
        ]
    if not runs:
        raise SystemExit(f"no result set at {directory}")
    return runs


def gates_of(bench: dict[str, Any], gates: dict[str, Any]) -> Iterator[dict[str, Any]]:
    """Every gated pair as ``{metric, workload, better, bound, absolute}``."""
    workloads = [w["name"] for w in bench["workloads"]]
    for metric in bench["end_to_end"]:
        tighter = gates["tighter_bounds"].get(metric["name"], {})
        for workload in workloads:
            yield {
                "metric": metric["name"], "workload": workload, "better": metric["better"],
                "bound": tighter.get(workload, metric["bound"]), "absolute": False,
            }
    for name, spec in gates["also_printed"].items():
        for workload, bound in spec["bounds"].items():
            yield {
                "metric": name, "workload": workload, "better": spec["better"],
                "bound": bound, "absolute": spec.get("absolute", False),
            }


def values_of(runs: list[dict[str, Any]], metric: str) -> list[float]:
    """A run that failed a correctness check has no valid timing; its
    ``failed_share`` (1.0) still counts."""
    return [
        run["metrics"][metric]["value"] for run in runs
        if run["correct"] or metric == "failed_share"
    ]


def verdict(gate: dict[str, Any], a: list[float], b: list[float]) -> tuple[str, Optional[float]]:
    bound = gate["bound"]
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    if gate["absolute"]:
        return ("within" if median_b <= median_a + bound else "worse"), None
    ratio = median_b / median_a
    if max(spread_share(a), spread_share(b)) > bound:
        return "unresolved", ratio
    worse_by = ratio - 1.0 if gate["better"] == "lower" else 1.0 - ratio
    return ("worse" if worse_by > bound else "within"), ratio


def main(results: Path, bench: dict[str, Any], gates: dict[str, Any],
         name_a: str, name_b: str) -> int:
    set_a, set_b = load_set(results, name_a), load_set(results, name_b)
    lengths = {run["seconds"] for runs in (*set_a.values(), *set_b.values()) for run in runs}
    if len(lengths) > 1:
        raise SystemExit(
            f"the runs were made with different --seconds {sorted(lengths)}: not comparable"
        )
    print(f"A = {name_a}   B = {name_b}   (median [q1, q3] over the runs; ratio = B / A)")
    bad = 0
    for gate in gates_of(bench, gates):
        metric, workload = gate["metric"], gate["workload"]
        a = values_of(set_a.get(workload, []), metric)
        b = values_of(set_b.get(workload, []), metric)
        if not a or not b:
            print(f"{workload:12} {metric:20} missing (A: {len(a)} runs, B: {len(b)} runs)")
            bad += 1
            continue
        word, ratio = verdict(gate, a, b)
        bad += word != "within"
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        shown = "absolute" if ratio is None else f"{ratio:.4f} of {a2:.6g}"
        print(
            f"{workload:12} {metric:20} A {a2:.6g} [{a1:.6g}, {a3:.6g}] n={len(a)}  "
            f"B {b2:.6g} [{b1:.6g}, {b3:.6g}] n={len(b)}  ratio {shown}  "
            f"bound {gate['bound']:g}  {word}"
        )
    return 1 if bad else 0
