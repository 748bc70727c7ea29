"""The benchmark's own self-tests pass on this source tree.

``perfbench/selftest.py`` checks that the benchmark's oracle catches wrong
tables, which it does through the ``TuningTable`` contract (``entries``,
``dataclasses.replace``); a change that breaks that contract fails here.
It runs in a fresh interpreter, in about ten seconds.
"""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "selftest.py")],
        cwd=_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
