"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table or figure of the paper.  Results are
printed and also written to ``benchmarks/results/<name>.txt`` so they remain
inspectable after a captured pytest run; ``docs/PERFORMANCE.md`` ("What maps
to which paper figure") says which file reproduces which figure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the benchmarks from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture
def report_sink():
    """Returns a function that records a named experiment report."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text)
        print(f"\n===== {name} =====\n{text}")

    return write


def quick_overrides() -> dict:
    """Simulation sizes used by the benchmark targets.

    Chosen so the whole benchmark suite completes in minutes while keeping
    enough samples per site for stable means and 95th percentiles.
    """
    from repro.types import seconds_to_micros

    return dict(
        duration=seconds_to_micros(8.0),
        warmup=seconds_to_micros(2.0),
        clients_per_replica=12,
    )
