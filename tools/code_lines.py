"""Count the code lines of ``src/``: non-blank, non-comment, non-docstring.

A line counts when it holds a token of code. Blank lines, lines that hold
only a comment, and the lines of a module, class or function docstring do
not count. Standard library only (``tokenize`` and ``ast``).

Usage: ``python tools/code_lines.py``. The report gives the total for the
repository's ``src/`` and its ten largest files.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TOP = 10

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in *source*."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(root: Path) -> dict[Path, int]:
    """Code lines per ``.py`` file under *root*, keyed by relative path."""
    return {
        path.relative_to(root): code_lines(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }


def main() -> None:
    counts = count_tree(SRC)
    print(f"{sum(counts.values())} code lines in {len(counts)} files under {SRC}")
    for path, lines in sorted(counts.items(), key=lambda item: -item[1])[:TOP]:
        print(f"{lines:6d}  {path}")


if __name__ == "__main__":
    main()
