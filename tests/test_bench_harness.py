"""Tests for the table renderer, the closed-form figures and the result
accessors the paper figures read (small, fast configurations)."""

from __future__ import annotations

from repro.bench.numerical import figure7_data, table2_rows, table4_rows
from repro.bench.reporting import format_table
from repro.experiment import Deployment, ExperimentSpec, WorkloadSpec


class TestExperimentResult:
    def test_single_experiment_produces_per_site_summaries(self):
        spec = ExperimentSpec(
            name="harness",
            protocol="clock-rsm",
            sites=("CA", "VA", "IR"),
            workload=WorkloadSpec(clients_per_site=4),
            duration_s=1.5,
            warmup_s=0.5,
        )
        result = Deployment(spec, backend="sim").run()
        assert all(result.summary(site).count > 0 for site in spec.sites)
        assert result.average_over_sites() > 0
        assert max(map(result.mean_ms, spec.sites)) >= result.average_over_sites()


class TestReporting:
    def test_format_table_alignment_and_content(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_columns_are_the_union_of_every_rows_keys(self):
        # An imbalanced run's per-site rows: only the origin has latencies,
        # and it need not come first.
        rows = [
            {"site": "CA", "committed": 0},
            {"site": "SG", "committed": 9, "mean_ms": 172.7, "p95_ms": 173.8},
        ]
        lines = format_table(rows).splitlines()
        assert lines[0].split() == ["site", "|", "committed", "|", "mean_ms", "|", "p95_ms"]
        assert [cell.strip() for cell in lines[2].split("|")] == ["CA", "0", "", ""]
        assert [cell.strip() for cell in lines[3].split("|")] == ["SG", "9", "172.7", "173.8"]


class TestNumericalBench:
    def test_table2_figure7_table4_are_consistent(self):
        assert len(table2_rows(["CA", "VA", "IR"], "VA")) == 3
        assert len(figure7_data()) == 3
        assert len(table4_rows()) == 6
