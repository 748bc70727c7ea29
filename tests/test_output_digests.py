"""The listing of ``tools/output_digests.py``."""

import importlib.util
import json
from pathlib import Path

from test_pinned_outputs import FIGURE_PARAMS, FIGURE_PARTS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def test_every_figure_part_and_demo_is_listed(capsys):
    assert output_digests.main([]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    figures = [line for line in lines if line[1] == "figure"]
    assert len(figures) == 72  # 36 parts at each parameter set, curve parts included
    # the table parts at the pinned outputs' parameters are their pins; the
    # rest are roughness curves
    label = json.dumps(FIGURE_PARAMS, sort_keys=True, separators=(",", ":"))
    pinned = {part: digest for digest, _, params, part in figures if params == label}
    assert {part: pinned[part] for part in FIGURE_PARTS} == FIGURE_PARTS
    assert set(pinned) - set(FIGURE_PARTS) == {
        "fig4_2", "fig4_3_chi_0_24", "fig4_3_chi_0_03", "fig4_3_chi_0_003", "fig5_1_dissonance"
    }
    demos = [line[2] for line in lines if line[1] == "demo"]
    assert demos == sorted(path.name for path in (ROOT / "demos").glob("*.py"))
    assert len(lines) == len(figures) + len(demos)
