"""Order statistics shared by the runner, the children and ``--compare``."""

from __future__ import annotations

import statistics
import time
from typing import Collection, Mapping, Sequence


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One value is its own quartiles, so a single run still prints a row.
    """
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


#: ``host_speed`` reads 1.0 at this many rounds per second: this sandbox in a
#: quiet minute.  It only fixes the unit "at reference host speed"; every
#: comparison between two runs is independent of it.
REFERENCE_ROUNDS_PER_S = 180_000.0
#: Host-speed readings per timed window (one more than this many intervals).
PROBES = 20


def host_speed() -> tuple[float, float]:
    """How fast this core runs plain Python right now, per second of wall time
    and per second of this process's CPU time; 1.0 = the reference.

    The best of three 1 ms bursts of dictionary and string work that touches
    nothing of the program under test.  The sandbox executes 10-40 % slower
    for seconds to minutes at a time (README, "Host noise"): unscaled, the
    CPU-bound timings of ten runs spread by 17-36 % in a noisy half hour.  A
    run reads the speed at ``PROBES + 1`` instants across its window and
    reports those timings at reference speed (``at_reference``), next to the
    values it observed.

    Wall-clock timings take the wall reading, CPU time the CPU reading: a
    stretch in which the hypervisor simply does not run this core slows the
    wall clock's view and leaves CPU time untouched.
    """
    per_wall = per_cpu = 0.0
    scratch: dict[int, tuple] = {}
    for _ in range(3):
        start, cpu = time.perf_counter(), time.process_time()
        rounds = 0
        while time.perf_counter() - start < 0.001:
            for i in range(50):
                scratch[i & 15] = (i, str(i))
            rounds += 1
        per_wall = max(per_wall, rounds / (time.perf_counter() - start))
        per_cpu = max(per_cpu, rounds / max(time.process_time() - cpu, 1e-9))
    return per_wall / REFERENCE_ROUNDS_PER_S, per_cpu / REFERENCE_ROUNDS_PER_S


def at_reference(
    observed: Mapping[str, tuple[float, int]], scaled: Collection[str],
    readings: Sequence[tuple[float, float]],
) -> dict[str, tuple[float, int, float]]:
    """``{name: (value, n, observed value)}``: the timings named in *scaled*
    at reference host speed, the others as observed.

    One scale per run, the median of its readings (scaling shorter pieces by
    their own readings was no steadier).  What a slower host stretches is
    multiplied by the speed; a rate is divided by it; CPU time takes the
    per-CPU-second reading.
    """
    wall = cpu = 1.0
    if scaled:
        wall = statistics.median(r[0] for r in readings)
        cpu = statistics.median(r[1] for r in readings)
    out = {}
    for name, (value, n) in observed.items():
        if name not in scaled:
            factor = 1.0
        elif name == "cpu_ms_per_op":
            factor = cpu
        else:
            factor = 1.0 / wall if name == "throughput_ops_s" else wall
        out[name] = (value * factor, n, value)
    return out
