"""Tests for the command-line interface."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiment import ExperimentSpec, WorkloadSpec

PAPER_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs" / "paper"


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
        path.write_text(spec.to_json())
        assert main(["check", str(path)]) == 0
        output = capsys.readouterr().out
        assert "linearizable" in output
        assert "cli-check [sim] clock-rsm" in output


class TestCommands:
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
        path.write_text(small.to_json())
        assert main(["run", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("fig6_cdf_sg: paxos-bcast on the sim backend")
        assert lines[1].split(" | ")[2:] == ["mean_ms", "p95_ms"]
        sg_row = next(line for line in lines if line.startswith("SG "))
        ca_row = next(line for line in lines if line.startswith("CA "))
        assert float(sg_row.split(" | ")[2]) > 0
        assert ca_row.split(" | ")[1].strip() == "0"
        assert ca_row.split(" | ")[2].strip() == ""
