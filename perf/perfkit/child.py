"""One workload in one fresh process: ``python -m perfkit.child ...``.

The clock starts before ``import repro`` so that ``setup_s`` charges the
import to set-up, as a user starting the system pays it.  The last line of
standard output is the run's result as one JSON object; the runner
(``perf/run.py``) is the only caller.
"""

from __future__ import annotations

import time

CHILD_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfkit.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--trace-path")
    args = parser.parse_args(argv)

    if args.workload == "iso":
        from . import micro

        # Full effort at the default traced window (10 s x 5/12) and above.
        result = {"values": micro.run_all(args.seed, min(1.0, args.seconds / 4.0))}
    else:
        from .workloads import Plan

        plan = Plan(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, clients=args.clients, child_start=CHILD_START,
            setup_only=args.setup_only, corrupt=args.corrupt, trace_path=args.trace_path,
        )
        if args.workload == "sim_geo5":
            from .simgeo import run_sim as run
        else:
            from .live import run_live as run
        result = run(plan)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
