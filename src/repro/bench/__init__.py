"""The paper's closed-form figures and the plain-text table renderer.

:mod:`~repro.bench.numerical` computes Table II, Figure 7 and Table IV from
the analytical latency model; no simulation is involved.  The simulated
figures are data: one spec file each under ``examples/specs/paper/``, swept
and compared with the committed ``benchmarks/results/*.txt`` goldens by
``benchmarks/test_paper_figures.py`` (``docs/PERFORMANCE.md``, "What maps to
which paper figure").  :func:`~repro.bench.reporting.format_table` renders
both, and the CLI's tables.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".numerical": ("figure7_data", "table2_rows", "table4_rows"),
        ".reporting": ("format_table",),
    },
)

__all__ = ["figure7_data", "table2_rows", "table4_rows", "format_table"]
