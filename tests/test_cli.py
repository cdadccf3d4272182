"""Tests for the command-line interface."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiment import ExperimentSpec, WorkloadSpec

PAPER_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs" / "paper"
GOLDENS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: How far an ``async`` run's per-site mean may sit from the ``sim`` golden.
#: The live loop adds its own scheduling delay; a run compressed by a
#: time scale multiplies that delay (2-3x the golden at 20).
ASYNC_MEAN_BAND = 0.15


def _golden_means(figure: str, protocol: str) -> dict[str, float]:
    """Per-site mean_ms of *protocol* in a committed figure golden."""
    means = {}
    for line in (GOLDENS / f"{figure}.txt").read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] == protocol:
            means[cells[1]] = float(cells[2])
    return means


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_removed_figure_subcommands_are_rejected(self):
        # Figures are spec files now (examples/specs/paper/), run with `run`.
        for command in ("latency", "imbalanced", "throughput"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_unknown_site_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--sites", "CA", "MOON"])

    def test_check_arguments(self):
        args = build_parser().parse_args(["check", "spec.toml", "--backend", "both"])
        assert args.spec == "spec.toml"
        assert args.backend == "both"
        assert args.handler.__name__ == "cmd_check"

    def test_check_command_verifies_a_small_spec(self, capsys, tmp_path):
        spec = ExperimentSpec(
            name="cli-check",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            workload=WorkloadSpec(clients_per_site=2, think_time_max_ms=30.0),
            duration_s=0.6,
            warmup_s=0.1,
            seed=6,
        )
        path = tmp_path / "cli_check.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["check", str(path)]) == 0
        output = capsys.readouterr().out
        assert "linearizable" in output
        assert "cli-check [sim] clock-rsm" in output


class TestCommands:
    def test_protocols_subcommand(self, capsys):
        assert main(["protocols"]) == 0
        output = capsys.readouterr().out
        for protocol in ("clock-rsm", "paxos", "paxos-bcast", "mencius", "mencius-bcast"):
            assert protocol in output
        assert "reconfiguration" in output

    def test_help_lists_registries(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        output = capsys.readouterr().out
        assert "protocols: clock-rsm, mencius, mencius-bcast, paxos, paxos-bcast" in output
        assert "workload scenarios: balanced, imbalanced, saturating" in output
        assert "backends: async, proc, sim" in output

    def test_numerical_command_prints_figure7_and_table4(self, capsys):
        assert main(["numerical"]) == 0
        output = capsys.readouterr().out
        assert "Figure 7" in output
        assert "Table IV" in output
        assert "group_size" in output

    def test_analyze_command_prints_model_and_verdict(self, capsys):
        assert main(["analyze", "--sites", "CA", "VA", "IR", "JP", "SG"]) == 0
        output = capsys.readouterr().out
        assert "Expected commit latency" in output
        assert "better by" in output

    def test_analyze_rejects_foreign_leader(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--sites", "CA", "VA", "IR", "--leader", "SG"])

    def test_analyze_rejects_too_few_sites(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--sites", "CA", "VA"])

    def test_run_command_prints_an_imbalanced_paper_cell(self, capsys, tmp_path):
        # Figure 6's cell at reduced size: only SG issues commands, so SG is
        # the one site with latencies and the table must still show them.
        spec = ExperimentSpec.from_file(PAPER_SPECS / "fig6_cdf_sg.toml")
        small = replace(
            spec,
            duration_s=0.6,
            warmup_s=0.2,
            workload=replace(spec.workload, clients_per_site=2),
        )
        path = tmp_path / "fig6_small.json"
        path.write_text(json.dumps(small.to_dict()))
        assert main(["run", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("fig6_cdf_sg: paxos-bcast on the sim backend")
        assert lines[1].split(" | ")[2:] == ["mean_ms", "p95_ms"]
        sg_row = next(line for line in lines if line.startswith("SG "))
        ca_row = next(line for line in lines if line.startswith("CA "))
        assert float(sg_row.split(" | ")[2]) > 0
        assert ca_row.split(" | ")[1].strip() == "0"
        assert ca_row.split(" | ")[2].strip() == ""

    def test_run_on_async_measures_the_spec_in_real_time_by_default(self, capsys, tmp_path):
        # Figure 1's Clock-RSM cell, shortened: with no --time-scale, the
        # async backend runs the spec's own delays and CLOCKTIME interval,
        # so every site's mean is the simulator's, up to loop overhead.
        spec = ExperimentSpec.from_file(PAPER_SPECS / "fig1_balanced_5_leader_CA.toml")
        short = replace(spec.with_protocol("clock-rsm"), duration_s=1.5, warmup_s=0.5)
        path = tmp_path / "fig1_clock_rsm.json"
        path.write_text(json.dumps(short.to_dict()))
        assert main(["run", str(path), "--backend", "async", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        golden = _golden_means("fig1_balanced_5_leader_CA", "clock-rsm")
        measured = {site: data["latency"]["mean_ms"] for site, data in result["sites"].items()}
        assert sorted(measured) == sorted(golden)
        for site, mean in golden.items():
            assert abs(measured[site] - mean) <= ASYNC_MEAN_BAND * mean, (site, measured, golden)
        assert result["metadata"]["time_scale"] == 1
