"""Every demo runs cleanly, and the exact demos print what they always have.

Each demo runs in a fresh interpreter on this source tree. The five demos
that print only exact arithmetic are pinned by the SHA-256 of their stdout;
the roughness demo prints floats, so only its nearest-rational column, which
the exact layer decides, is checked.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = _ROOT / "demos"

STDOUT_SHA256 = {
    "affinitive_tuning_walkthrough.py": "83832e4630ffbdc475d324320167863a873e8cd4b644551a215f5c10e5efe093",
    "consonance_basics.py": "0f7b3a7f4564843cf2cda07fcf5f05c3d43fa8730e685b6dc6480fb55551fe38",
    "harmonic_tuning_thresholds.py": "ec46f7a43da7ae051cb012dfe34f74682040abc249cd9fb001698db903f38891",
    "inharmonic_spectra.py": "b37f666fe5e4e4684e2205599b7aad5ee979f477c0ad8ec625e508a0e33e0940",
    "superset_tuning_sparse_sounds.py": "8178cc4ced243ea5992fa50678fb49e22be9374bebe74ef16545b8a6bbe74836",
}


def _run_demo(name: str) -> str:
    done = subprocess.run(
        [sys.executable, str(_DEMOS / name)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done.stdout


def test_every_demo_is_covered():
    demos = {path.name for path in _DEMOS.glob("*.py")}
    assert demos == set(STDOUT_SHA256) | {"dissonance_overlay.py"}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_exact_demo_output_is_pinned(name):
    out = _run_demo(name)
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name]


def test_roughness_minima_land_on_affinitive_intervals():
    out = _run_demo("dissonance_overlay.py")
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if "nearest rational" in line) + 1
    rows = lines[start : lines.index("", start)]
    assert [row.split()[2] for row in rows] == ["6/5", "5/4", "4/3", "3/2", "5/3", "5/3", "2"]
