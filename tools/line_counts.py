"""Line counts of Python modules: lines, code, docstring and comment lines.

    python3 tools/line_counts.py [PATH ...]

Each PATH is a ``.py`` file or a directory, whose ``*.py`` files are
counted (not recursively); with no PATH, ``src/toneset`` next to this
script's directory is counted. One row is printed per module, then the
total. The rules, read from Python's own ``tokenize`` and ``ast``:

- lines: every line of the file, as ``wc -l`` counts them when the file
  ends in a line break;
- docstring lines: the lines of a module, class or function docstring;
- code lines: the lines that hold a token other than a comment, a line
  break, an indent or dedent, or a docstring (a token over several lines
  marks each of them);
- comment lines: the lines that hold a comment and no code.

A blank line counts in none of the last three columns, and a line that
holds both code and a docstring counts in both.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


class Counts(NamedTuple):
    lines: int
    code: int
    docstring: int
    comment: int

    def __add__(self, other):  # type: ignore[override]
        return Counts(*(a + b for a, b in zip(self, other)))


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every docstring in a module."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                doc = first.value
                if isinstance(doc.value, str):
                    spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def count_source(source: str) -> Counts:
    """The counts of one module's source text."""
    spans = _docstring_spans(ast.parse(source))
    code: set[int] = set()
    docstring: set[int] = set()
    comment: set[int] = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        rows = range(token.start[0], token.end[0] + 1)
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.COMMENT:
            comment.update(rows)
        elif any(start <= token.start and token.end <= end for start, end in spans):
            docstring.update(rows)
        else:
            code.update(rows)
    return Counts(len(source.splitlines()), len(code), len(docstring), len(comment - code))


def _modules(paths: list[Path]) -> list[Path]:
    found = []
    for path in paths:
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path(__file__).resolve().parent.parent / "src" / "toneset"]
    rows = [(os.path.relpath(path), count_source(path.read_text(encoding="utf-8"))) for path in _modules(paths)]
    total = sum((counts for _, counts in rows), Counts(0, 0, 0, 0))
    width = max([len(name) for name, _ in rows] + [5])
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'docstring':>9}  {'comment':>7}")
    for name, counts in rows + [("total", total)]:
        print(f"{name:<{width}}  {counts.lines:>6}  {counts.code:>6}  {counts.docstring:>9}  {counts.comment:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
