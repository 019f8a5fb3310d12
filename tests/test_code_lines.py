"""``tools/code_lines.py`` counts statement lines only."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = (
        1,
        2,
    )

    def f(self):
        """Function docstring."""
        s = """not a docstring:
        an assigned string"""
        "a string statement that is not first"
        return s
'''


def test_leaves_out_docstrings_comments_and_blank_lines():
    # import, class, x = ( ... ) over 4 lines, def, the assigned string
    # over 2 lines, the second string statement and return
    assert code_lines.code_lines(SOURCE) == 1 + 1 + 4 + 1 + 2 + 1 + 1


def test_counts_the_package(capsys):
    package = Path(__file__).resolve().parents[1] / "src" / "hyperext"
    assert code_lines.main(["code_lines.py", str(package)]) == 0
    rows = capsys.readouterr().out.splitlines()
    counts = [int(row.split()[0]) for row in rows]
    assert rows[-1].endswith("total") and counts[-1] == sum(counts[:-1]) > 0
    assert len(rows) - 1 == len(list(package.glob("*.py")))
