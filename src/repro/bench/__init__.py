"""Benchmark harness: experiment definitions for every table and figure.

Each experiment function builds the simulated deployment the paper describes
(replica placement, workload, protocol configuration), runs it, and returns a
structured result that the reporting helpers can print as the same rows or
series the paper shows.  The ``benchmarks/`` directory contains one
pytest-benchmark target per table/figure that calls into this package;
``docs/PERFORMANCE.md`` ("What maps to which paper figure") lists which
target reproduces which artifact and what it asserts.
"""

from .latency_experiments import (
    LatencyExperimentResult,
    latency_cdf_experiment,
    latency_experiment,
    run_latency_comparison,
)
from .numerical import figure7_data, table2_rows, table4_rows
from .reporting import format_cdf, format_latency_table, format_table
from .throughput import ThroughputResult, run_throughput_comparison

__all__ = [
    "LatencyExperimentResult",
    "latency_experiment",
    "latency_cdf_experiment",
    "run_latency_comparison",
    "figure7_data",
    "table2_rows",
    "table4_rows",
    "ThroughputResult",
    "run_throughput_comparison",
    "format_table",
    "format_latency_table",
    "format_cdf",
]
