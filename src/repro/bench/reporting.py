"""Plain-text reporting of experiment results.

The figures print the same rows/series the paper's tables and figures show,
so a run's output can be compared side by side with the paper (see
docs/PERFORMANCE.md, "What maps to which paper figure").
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of dict rows as an aligned text table.

    The columns are every key of every row, in first-seen order; a row
    without a column leaves its cell blank.
    """
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    columns = list(dict.fromkeys(column for row in rows for column in row))
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines) + "\n"


__all__ = ["format_table"]
