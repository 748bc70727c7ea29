"""The counting rules of ``tools/line_counts.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_counts", ROOT / "tools" / "line_counts.py")
line_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_counts)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # code with a comment


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        ("parenthesised " "docstring")
        return 1


def g(): """one-line docstring"""


def h():
    """Joined " """ "docstring."
    # indented comment

    return (
        2
    )
'''


def test_counting_rules_on_a_fixture():
    counts = line_counts.count_source(FIXTURE)
    # docstrings: lines 1-2, 9, 15 (its parentheses are code), 19 (shared
    # with its def) and 23; code: 5, 8, 11-12, 14-16, 19, 22 and 26-28;
    # comments alone: 4 and 24, as line 5's comment sits with code
    assert counts == line_counts.Counts(lines=28, code=12, docstring=6, comment=2)


def test_per_module_lines_are_the_file_line_counts(capsys):
    modules = sorted((ROOT / "src" / "toneset").glob("*.py"))
    assert line_counts.main([str(ROOT / "src" / "toneset")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(modules) + 2  # the header and the total
    rows = [line.split() for line in printed[1:]]
    for row, module in zip(rows, modules):
        assert row[0].endswith(module.name)
        assert int(row[1]) == len(module.read_bytes().splitlines())
    totals = [sum(int(row[i]) for row in rows[:-1]) for i in range(1, 5)]
    assert rows[-1] == ["total", *map(str, totals)]
