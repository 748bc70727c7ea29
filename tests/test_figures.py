import csv
import io
import json
from fractions import Fraction as F

import pytest

from toneset import (
    cents,
    emit_figure_data,
    enumerate_rationals,
    format_ratio,
    supported_figures,
    thomae_classical,
    thomae_modified,
)
from toneset.cli import main


def rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestRegistry:
    def test_unknown_id_lists_supported(self):
        with pytest.raises(ValueError, match="fig5_1"):
            emit_figure_data("fig99")

    def test_supported_ids(self):
        # each id is a builder's name without its "_"; a helper named
        # "_fig..." by accident would show up here as an eighteenth id
        assert supported_figures() == [
            "fig4_2", "fig4_3", "fig5_1", "fig5_10", "fig5_11", "fig5_12", "fig5_13", "fig5_14",
            "fig5_2", "fig5_3", "fig5_4", "fig5_5", "fig5_6", "fig5_7", "fig5_8", "fig5_9", "fig8_1",
        ]


class TestTuningFigures:
    def test_affinitive_c4_has_23_rows_and_curve_sidecar(self):
        parts = emit_figure_data("fig5_1", {"steps": 200})
        assert set(parts) == {"fig5_1", "fig5_1_dissonance"}
        assert len(rows(parts["fig5_1"])) == 23
        sidecar = rows(parts["fig5_1_dissonance"])
        assert len(sidecar) == 200
        assert set(sidecar[0]) == {"t", "cents", "dissonance"}

    def test_octave_reduced_panel(self):
        parts = emit_figure_data("fig5_2")
        got = [r["interval_ratio"] for r in rows(parts["fig5_2"])]
        assert got == ["1/1", "6/5", "5/4", "4/3", "3/2", "8/5", "5/3"]

    def test_inharmonic_panel_row_count(self):
        parts = emit_figure_data("fig5_4")
        assert len(rows(parts["fig5_4"])) == 31

    def test_context_growth_panels(self):
        parts = emit_figure_data("fig5_3")
        counts = {key: len(rows(text)) for key, text in parts.items()}
        assert counts["fig5_3a"] <= counts["fig5_3b"] <= counts["fig5_3c"]

    def test_single_partial_distribution_follows_thomae(self):
        parts = emit_figure_data("fig5_6", {"max_den": 12})
        for r in rows(parts["fig5_6"]):
            assert float(r["total"]) == float(r["thomae_modified"])

    def test_sparse_set_threshold_panel(self):
        parts = emit_figure_data("fig5_11", {"max_den": 60})
        assert len(rows(parts["fig5_11a"])) == 5  # octaves only
        assert len(rows(parts["fig5_11b"])) > 500
        filtered = [F(r["interval_ratio"]) for r in rows(parts["fig5_11c"])]
        assert {F(1), F(2), F(1, 2)} <= set(filtered)
        assert len(filtered) < 30

    def test_superset_panels(self):
        parts = emit_figure_data("fig5_12")
        assert len(rows(parts["fig5_12a"])) == 1
        expected = {F(p, q) for p in range(1, 6) for q in range(1, 6)}
        got = {F(r["interval_ratio"]) for r in rows(parts["fig5_12c"])}
        assert got == expected

    def test_rich_context_prefers_major_third_over_seventh(self):
        parts = emit_figure_data("fig5_9", {"max_den": 8, "partials": 60})
        data = {F(r["interval_ratio"]): float(r["total"]) for r in rows(parts["fig5_9a"])}
        assert data[F(5, 4)] > data[F(7, 4)]

    def test_rounding_panels_show_harmonicity_jump(self):
        parts = emit_figure_data("fig5_10", {"max_den": 8})
        def unison_chi(text):
            return next(
                float(r["harmonicity"]) for r in rows(text) if r["interval_ratio"] == "1/1"
            )
        assert unison_chi(parts["fig5_10_rounded"]) > 10 * unison_chi(parts["fig5_10_original"])

    def test_thomae_classical_panel(self):
        parts = emit_figure_data("fig8_1", {"max_den": 12})
        data = {r["interval_ratio"]: float(r["thomae"]) for r in rows(parts["fig8_1"])}
        assert data["1/2"] == 0.5
        assert data["2/3"] == pytest.approx(1 / 3)

    def test_harmonicity_growth_panels_small(self):
        parts = emit_figure_data("fig5_7", {"partials": (1, 4), "max_den": 10})
        assert set(parts) == {"fig5_7_k1", "fig5_7_k4"}

    def test_curve_figures_have_three_resolutions(self):
        parts = emit_figure_data("fig4_3", {"steps": 50})
        assert len(parts) == 3


@pytest.mark.parametrize("max_den", [1, 7, 16, 60])
def test_one_distribution(max_den, capsys):
    """fig8_1 equals a reference built from ``enumerate_rationals`` and
    ``thomae_classical``, and fig5_5, fig5_6 and the ``thomae`` document have
    its intervals."""
    params = {"max_den": max_den}
    reference = "interval_ratio,cents,thomae\n" + "".join(
        f"{format_ratio(t, always_slash=True)},{cents(t):.4f},{float(thomae_classical(t))!r}\n"
        for t in enumerate_rationals(F(1, 8), 8, max_den)
    )
    thomae = emit_figure_data("fig8_1", params)["fig8_1"]
    assert thomae == reference
    intervals = [r["interval_ratio"] for r in rows(thomae)]
    assert [r["interval_ratio"] for r in rows(emit_figure_data("fig5_5", params)["fig5_5"])] == intervals
    modified = rows(emit_figure_data("fig5_6", params)["fig5_6"])
    assert [r["interval_ratio"] for r in modified] == intervals
    assert [r["thomae_modified"] for r in modified] == [
        repr(float(thomae_modified(F(t)))) for t in intervals
    ]
    assert main(["thomae", "--max-den", str(max_den)]) == 0
    document = json.loads(capsys.readouterr().out)
    assert [e["interval"] for e in document["entries"]] == intervals
