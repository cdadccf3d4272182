"""Command-line interface for the Clock-RSM reproduction.

Runs experiment specs and the analytical model without pytest::

    python -m repro.cli run examples/specs/fig1_balanced_5.toml
    python -m repro.cli run examples/specs/fig1_balanced_5.toml --backend async
    python -m repro.cli run examples/specs/fig1_balanced_5.toml --shards 4
    python -m repro.cli run examples/specs/paper/fig6_cdf_sg.toml
    python -m repro.cli check examples/specs/crash_leaderless_commit.toml
    python -m repro.cli protocols
    python -m repro.cli numerical
    python -m repro.cli analyze --sites CA IR BR

``run`` executes a declarative :class:`~repro.experiment.ExperimentSpec`
file (TOML or JSON) on either backend; ``check`` additionally records the
operation history and verifies it is linearizable (exit status 1 when it is
not); ``protocols`` prints the registry's capability table; ``numerical``
and ``analyze`` print the closed-form model's figures.  Each simulated
figure of the paper is a spec under ``examples/specs/paper/``: ``run`` on one
file is one cell of the figure, and ``pytest benchmarks -k <figure>`` runs
the whole figure against its committed golden output.

The protocol, scenario, and backend listings in the ``--help`` output are
generated from the live registries (:mod:`repro.protocols.registry`,
:mod:`repro.workload.scenarios`, :data:`repro.experiment.BACKENDS`), so a
newly registered protocol or scenario shows up without touching this file.

Installed as the ``clock-rsm-repro`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .analysis.comparison import best_paxos_bcast_leader, compare_group
from .analysis.ec2 import EC2_SITES, ec2_latency_matrix
from .bench.numerical import figure7_data, table2_rows, table4_rows
from .bench.reporting import format_table
from .errors import ReproError
from .experiment import (
    BACKENDS,
    SCENARIOS,
    BatchingSpec,
    Deployment,
    ExperimentSpec,
    ShardingSpec,
    check_spec,
)
from .protocols.registry import available_protocols, capability_rows


def _registry_epilog() -> str:
    """Help-text listing of the live registries (never hard-coded prose)."""
    return (
        f"protocols: {', '.join(available_protocols())}\n"
        f"workload scenarios: {', '.join(sorted(SCENARIOS))}\n"
        f"backends: {', '.join(sorted(BACKENDS))}\n"
        "(see `clock-rsm-repro protocols` for the capability table)"
    )


def _resolve_leader(sites: Sequence[str], leader: Optional[str]) -> str:
    if leader is not None:
        if leader not in sites:
            raise SystemExit(f"leader {leader} is not among the selected sites {list(sites)}")
        return leader
    matrix = ec2_latency_matrix(sites)
    return sites[best_paxos_bcast_leader(matrix)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _apply_shards(spec: ExperimentSpec, shards: Optional[int]) -> ExperimentSpec:
    """Apply a ``--shards`` override to a loaded spec.

    The spec's per-shard overrides are kept as written: shrinking the count
    below an override's index is a :class:`ConfigurationError` (reported as
    ``error: ...``), never a silently dropped override.
    """
    if shards is None:
        return spec
    base = spec.sharding or ShardingSpec()
    return replace(spec, sharding=replace(base, shards=shards))


def _apply_batch(spec: ExperimentSpec, batch: Optional[int]) -> ExperimentSpec:
    """Apply a ``--batch`` override to a loaded spec.

    Overrides (or introduces) the ``[batching]`` table's ``max_batch``; the
    spec's window and pipeline depth are kept as written.  ``--batch 1``
    explicitly disables batching on a spec that configures it.
    """
    if batch is None:
        return spec
    base = spec.batching or BatchingSpec()
    return replace(spec, batching=replace(base, max_batch=batch))


def cmd_run(args: argparse.Namespace) -> int:
    """Run a declarative experiment spec file on the chosen backend."""
    try:
        spec = _apply_shards(ExperimentSpec.from_file(args.spec), args.shards)
        spec = _apply_batch(spec, args.batch)
        options = (
            {"time_scale": args.time_scale}
            if args.backend in ("async", "proc")
            else {}
        )
        if args.uvloop:
            if args.backend != "async":
                raise SystemExit("error: --uvloop applies to the async backend only")
            options["uvloop"] = True
        result = Deployment(spec, backend=args.backend, **options).run()
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    shard_count = len(result.shards) if result.shards is not None else 1
    sharded = f", {shard_count} shards" if shard_count > 1 else ""
    title = (
        f"{result.name}: {result.protocol} on the {result.backend} backend, "
        f"{result.duration_s:g} s measured{sharded}"
    )
    print(format_table(result.per_site_rows(), title))
    print(
        f"total committed: {result.total_committed} "
        f"({result.throughput_kops:.1f} kop/s)"
    )
    if result.shards is not None:
        for index, shard_result in enumerate(result.shards):
            print(
                f"  shard {index} [{shard_result.protocol}]: "
                f"{shard_result.total_committed} committed "
                f"({shard_result.throughput_kops:.1f} kop/s)"
            )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run a spec with history recording and verify linearizability."""
    backends = ["sim", "async"] if args.backend == "both" else [args.backend]
    exit_code = 0
    runs = []
    if args.uvloop and "async" not in backends:
        raise SystemExit("error: --uvloop applies to the async backend only")
    try:
        spec = _apply_shards(ExperimentSpec.from_file(args.spec), args.shards)
        spec = _apply_batch(spec, args.batch)
        for backend in backends:
            options = (
                {"time_scale": args.time_scale, "submit_timeout": args.submit_timeout}
                if backend in ("async", "proc")
                else {}
            )
            if args.uvloop and backend == "async":
                options["uvloop"] = True
            run = check_spec(spec, backend=backend, **options)
            runs.append(run)
            if not run.linearizable:
                exit_code = 1
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps([run.to_dict() for run in runs], indent=2))
    else:
        for run in runs:
            print(run.describe())
    return exit_code


def cmd_protocols(args: argparse.Namespace) -> int:
    """Print the protocol registry's capability table.

    The rows come from :func:`repro.protocols.registry.capability_rows`,
    the same source the docs test checks ``docs/PROTOCOLS.md`` against, so
    the CLI table and the documentation cannot drift apart.
    """
    print(format_table(capability_rows(), "Registered protocols and their capabilities"))
    return 0


def cmd_numerical(args: argparse.Namespace) -> int:
    """Analytical comparison over all placements (Figure 7 and Table IV)."""
    print(format_table(figure7_data(), "Figure 7: average latency by group size"))
    print(format_table(table4_rows(), "Table IV: latency reduction of Clock-RSM over Paxos-bcast"))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Table II instantiation and placement advice for a chosen set of sites."""
    sites = list(dict.fromkeys(args.sites))
    if len(sites) < 3:
        raise SystemExit("pick at least three sites")
    leader = _resolve_leader(sites, args.leader)
    print(format_table(
        table2_rows(sites, leader), f"Expected commit latency (ms), leader {leader}"
    ))
    comparison = compare_group(sites)
    delta = comparison.paxos_bcast_average - comparison.clock_rsm_average
    verdict = (
        f"Clock-RSM is better by {delta:.1f} ms on average"
        if delta > 0
        else f"Paxos-bcast (leader {comparison.paxos_bcast_leader}) is better by {-delta:.1f} ms on average"
    )
    print(verdict)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clock-rsm-repro",
        description="Clock-RSM (DSN 2014) reproduction: latency/throughput experiments and analysis.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    epilog = _registry_epilog()

    run = subparsers.add_parser(
        "run", help="run a declarative experiment spec file (.toml / .json)",
        epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run.add_argument("spec", help="path to an ExperimentSpec file")
    run.add_argument("--backend", default="sim", choices=sorted(BACKENDS),
                     help="experiment backend (see the listing below)")
    run.add_argument("--time-scale", type=float, default=20.0,
                     help="async/proc backends: divide delays and durations "
                          "by this factor")
    run.add_argument("--shards", type=int, default=None,
                     help="override the spec's [sharding] shard count "
                          "(deploys N independent protocol groups)")
    run.add_argument("--batch", type=int, default=None,
                     help="override the spec's [batching] max_batch "
                          "(commands agreed on per protocol round; 1 disables)")
    run.add_argument("--uvloop", action="store_true",
                     help="async backend: run under the uvloop event loop "
                          "(falls back to the stdlib loop if not installed)")
    run.add_argument("--json", action="store_true",
                     help="print the full result as JSON instead of a table")
    run.set_defaults(handler=cmd_run)

    check = subparsers.add_parser(
        "check",
        help="run a spec with history recording and verify linearizability",
        epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    check.add_argument("spec", help="path to an ExperimentSpec file")
    check.add_argument("--backend", default="sim",
                       choices=sorted(BACKENDS) + ["both"],
                       help="backend(s) to run the spec on before checking")
    check.add_argument("--time-scale", type=float, default=20.0,
                       help="async/proc backends: divide delays and durations "
                            "by this factor")
    check.add_argument("--submit-timeout", type=float, default=5.0,
                       help="async/proc backends: per-command commit timeout "
                            "in seconds")
    check.add_argument("--shards", type=int, default=None,
                       help="override the spec's [sharding] shard count "
                            "(checks per-shard linearizability)")
    check.add_argument("--batch", type=int, default=None,
                       help="override the spec's [batching] max_batch before "
                            "checking (batches must stay linearizable)")
    check.add_argument("--uvloop", action="store_true",
                       help="async backend: run under the uvloop event loop "
                            "(falls back to the stdlib loop if not installed)")
    check.add_argument("--json", action="store_true",
                       help="print results and verdicts as JSON")
    check.set_defaults(handler=cmd_check)

    protocols = subparsers.add_parser(
        "protocols", help="print the registered protocols and their capabilities"
    )
    protocols.set_defaults(handler=cmd_protocols)

    numerical = subparsers.add_parser("numerical", help="analytical Figure 7 / Table IV")
    numerical.set_defaults(handler=cmd_numerical)

    analyze = subparsers.add_parser("analyze", help="Table II model for a custom placement")
    analyze.add_argument("--sites", nargs="+", default=["CA", "VA", "IR"], choices=EC2_SITES)
    analyze.add_argument("--leader", default=None, choices=EC2_SITES)
    analyze.set_defaults(handler=cmd_analyze)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess/tests
    sys.exit(main())
