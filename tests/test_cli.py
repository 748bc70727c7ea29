import json
from fractions import Fraction as F

import pytest

from toneset.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConsonanceCommand:
    def test_fifth_report(self, capsys):
        code, out, _ = run(["consonance", "262*N6", "393*N6"], capsys)
        assert code == 0
        assert "affinity    = 1/3 (0.333)" in out
        assert "harmonicity = 5/9 (0.556)" in out
        assert "total       = 4/9 (0.444)" in out

    def test_note_notation(self, capsys):
        code, out, _ = run(["consonance", "C4_6@262", "G4_6@393"], capsys)
        assert code == 0
        assert "4/9" in out


class TestTuningCommands:
    def test_affinitive_document(self, capsys):
        code, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 23
        assert doc["metadata"]["generator"] == "affinitive"

    def test_affinitive_note_annotation(self, capsys):
        _, out, _ = run(["affinitive", "262*N6", "262*N6", "--notes"], capsys)
        doc = json.loads(out)
        fifth = next(e for e in doc["entries"] if e["interval"] == "3/2")
        assert fifth["note"] == "G4"

    def test_harmonic_with_threshold(self, capsys):
        code, out, _ = run(
            ["harmonic", "262,524,1048", "262,524,1048", "--h", "23/100",
             "--lo", "1/4", "--hi", "4"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        intervals = {e["interval"] for e in doc["entries"]}
        assert {"1/1", "2/1", "1/2"} <= intervals
        assert doc["metadata"]["parameters"]["h"] == "23/100"

    def test_harmonic_default_bounds(self, capsys):
        code, out, _ = run(["harmonic", "262", "262", "--h", "0"], capsys)
        assert code == 0
        params = json.loads(out)["metadata"]["parameters"]
        assert params == {"h": "0/1", "lo": "1/8", "hi": "8/1", "max_den": 60}

    def test_superset_defaults_to_extended_singleton(self, capsys):
        code, out, _ = run(["superset", "262", "262"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["parameters"] == {"n": 4, "m": 4}
        assert len(doc["entries"]) == 19

    def test_thomae_integer_ratios_only(self, capsys):
        code, out, _ = run(["thomae", "--max-den", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["generator"] == "thomae"
        assert [e["interval"] for e in doc["entries"]] == [
            "1/1", "2/1", "3/1", "4/1", "5/1", "6/1", "7/1", "8/1"
        ]
        assert doc["entries"][2]["total"] == "1/3"

    def test_text_format_orders_by_consonance(self, capsys):
        code, out, _ = run(
            ["affinitive", "262*N6", "262*N6", "--format", "text", "--order", "consonance"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[2].split()[0] == "1/1"  # unison first at total 1


class TestCurveCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            ["curve", "262*N6", "262*N6", "--steps", "20", "--lo", "1", "--hi", "2"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,cents,dissonance"
        assert len(lines) == 21


class TestDocumentPipelines:
    def test_reduce_then_export_scl(self, tmp_path, capsys):
        code, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        assert code == 0
        doc_path = tmp_path / "tuning.json"
        doc_path.write_text(out)

        code, reduced, _ = run(["reduce-octave", "--in", str(doc_path)], capsys)
        assert code == 0
        reduced_doc = json.loads(reduced)
        assert reduced_doc["metadata"]["parameters"]["octave_reduced"] is True
        assert [e["interval"] for e in reduced_doc["entries"]] == [
            "1/1", "6/5", "5/4", "4/3", "3/2", "8/5", "5/3"
        ]
        folded = next(e for e in reduced_doc["entries"] if e["interval"] == "8/5")
        assert folded["affinity"] == "0/1"

        reduced_path = tmp_path / "reduced.json"
        reduced_path.write_text(reduced)
        code, scl, _ = run(
            ["export-scl", "--in", str(reduced_path), "--name", "c4"], capsys
        )
        assert code == 0
        lines = scl.splitlines()
        assert lines[0] == "! c4.scl"
        assert lines[2] == "7"
        assert lines[-1] == "2/1"

    def test_reduce_is_idempotent_bytewise(self, tmp_path, capsys):
        _, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(out)
        _, once, _ = run(["reduce-octave", "--in", str(doc_path)], capsys)
        once_path = tmp_path / "once.json"
        once_path.write_text(once)
        _, twice, _ = run(["reduce-octave", "--in", str(once_path)], capsys)
        assert once == twice

    def test_export_scl_requires_reduced_document(self, tmp_path, capsys):
        _, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(out)
        code, _, err = run(["export-scl", "--in", str(doc_path)], capsys)
        assert code == 3
        assert "reduce-octave" in err


    @pytest.mark.parametrize("command", ["reduce-octave", "export-scl"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda e: e.pop("interval"), "entry 2 lacks 'interval'"),
            (lambda e: e.pop("harmonicity"), "entry 2 lacks 'harmonicity'"),
            (lambda e: e.update(affinity=1), "entry 2 field 'affinity' must be"),
        ],
        ids=["no-interval", "no-harmonicity", "int-affinity"],
    )
    def test_malformed_entry_is_domain_error(self, tmp_path, capsys, command, edit, message):
        _, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        data = json.loads(out)
        edit(data["entries"][2])
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(data))
        code, _, err = run([command, "--in", str(doc_path)], capsys)
        assert code == 3
        assert message in err and "Traceback" not in err


class TestFigureCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(["figure", "fig8_1", "--max-den", "5"], capsys)
        assert code == 0
        assert out.startswith("interval_ratio,cents,thomae")

    def test_out_dir(self, tmp_path, capsys):
        code, _, _ = run(
            ["figure", "fig5_2", "--out-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert (tmp_path / "fig5_2.csv").exists()

    def test_fig5_9_takes_one_partial_count(self, capsys):
        code, out, err = run(["figure", "fig5_9", "--partials", "4", "--max-den", "8"], capsys)
        assert code == 0
        assert "# part: fig5_9a" in out and "Traceback" not in err

    def test_fig5_9_rejects_several_partial_counts(self, capsys):
        code, out, err = run(["figure", "fig5_9", "--partials", "4", "6"], capsys)
        assert code == 3
        assert out == ""
        assert "one partial count" in err and "Traceback" not in err

    def test_unknown_figure_is_domain_error(self, capsys):
        code, _, err = run(["figure", "fig99"], capsys)
        assert code == 3
        assert "supported" in err


class TestExitCodes:
    def test_bad_set_token_is_parse_error(self, capsys):
        code, _, err = run(["consonance", "wibble*", "262"], capsys)
        assert code == 2
        assert "wibble" in err

    def test_bad_list_item_is_parse_error(self, capsys):
        code, _, err = run(["consonance", "262,zzz", "262"], capsys)
        assert code == 2
        assert "zzz" in err

    def test_usage_error(self, capsys):
        assert run(["harmonic", "262", "262"], capsys)[0] == 2  # missing --h

    def test_out_of_window_note_reference(self, capsys):
        code, _, err = run(["consonance", "C4_6@440", "262"], capsys)
        assert code == 3
        assert "mismatch" in err
