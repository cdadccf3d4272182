"""The code-line counter (``tools/code_lines.py``) counts only code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment

import os  # a trailing comment keeps the line


def f(x):
    """Function docstring."""
    text = """a string
    that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, def, text (2 lines), return (2 lines), class, y
    assert code_lines.code_lines(SOURCE) == 8


def test_count_tree_reports_each_file(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\n# c\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n')
    assert code_lines.count_tree(tmp_path) == {Path("b.py"): 0, Path("pkg/a.py"): 2}


def test_a_string_after_the_first_statement_counts_as_code():
    # Only a scope's first statement is its docstring.
    assert code_lines.code_lines('x = 1\n"""An attribute note."""\n') == 2


def test_an_async_function_docstring_does_not_count():
    source = 'async def f():\n    """Docstring."""\n    return 1\n'
    assert code_lines.code_lines(source) == 2


def test_main_prints_the_src_total_and_its_ten_largest_files(capsys):
    code_lines.main()
    header, *rows = capsys.readouterr().out.splitlines()
    counts = code_lines.count_tree(_TOOL.parents[1] / "src")
    assert header == (
        f"{sum(counts.values())} code lines in {len(counts)} files"
        f" under {_TOOL.parents[1] / 'src'}"
    )
    largest = sorted(counts.items(), key=lambda item: -item[1])[:10]
    assert rows == [f"{lines:6d}  {path}" for path, lines in largest]
