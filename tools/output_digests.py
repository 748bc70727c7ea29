"""SHA-256 digests of every figure part and of each demo's stdout.

    python3 tools/output_digests.py [CHECKOUT]

CHECKOUT is a toneset source tree (the one holding this script by
default); its ``src`` is imported and its ``demos/*.py`` are run, each in
a fresh interpreter. One line is printed per output, as the digest of its
bytes and a label:

    <sha256>  figure <params> <part>    every part of every figure id, at
                                         each of PARAMS (compact JSON)
    <sha256>  demo <file>               a demo's stdout

Curve parts are included: their last digits depend on numpy's ``exp``, so
compare digests made on one machine. Two trees write the same outputs when
their listings are equal, as in

    diff <(python3 tools/output_digests.py OLD) <(python3 tools/output_digests.py)

A demo that exits nonzero or writes to stderr stops the listing with exit 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

# the defaults, and the small parameters that the pinned outputs use
PARAMS = ({}, {"max_den": 16, "steps": 300})


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def figure_lines() -> list[str]:
    """A line per part of every figure id at each of PARAMS."""
    from toneset import emit_figure_data, supported_figures

    lines = []
    for params in PARAMS:
        label = json.dumps(params, sort_keys=True, separators=(",", ":"))
        for figure_id in supported_figures():
            for part, text in emit_figure_data(figure_id, params).items():
                lines.append(f"{_sha256(text)}  figure {label} {part}")
    return lines


def demo_lines(root: Path) -> list[str]:
    """A line per demo of ``root``, run on ``root/src``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    lines = []
    for demo in sorted((root / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
        if done.returncode or done.stderr:
            raise RuntimeError(f"{demo.name} exited {done.returncode}:\n{done.stderr}")
        lines.append(f"{_sha256(done.stdout)}  demo {demo.name}")
    return lines


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    try:
        lines = figure_lines() + demo_lines(root)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
