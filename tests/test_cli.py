import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toneset
from toneset import supported_figures
from toneset.cli import main
from toneset.consonance import total_consonance
from toneset.core import MAX_HARMONIC_PARTIALS, _display_score, format_ratio
from toneset.document import _score_text
from toneset.notation import parse_set_expression
from toneset.notes import note_name
from toneset.tuning import MAX_TABLE_ENTRIES


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decimal_text(value):
    """Exact "i.f" text of a value whose denominator divides 2."""
    return f"{value.numerator // value.denominator}.{5 if value.denominator == 2 else 0}"


# mixed-notation set terms over multiples of 65.5 Hz, so that sets often
# share partials: decimal lists, f*Nk shorthand and @-referenced note terms
_PITCHES = st.integers(1, 78).map(lambda k: decimal_text(F(131 * k, 2)))
_MIXED_TERMS = st.one_of(
    st.lists(_PITCHES, min_size=1, max_size=3).map(",".join),
    st.builds("{}*N{}".format, _PITCHES, st.integers(1, 6)),
    st.builds(lambda ref, count: f"{note_name(F(ref)).render()}_{count}@{ref}", _PITCHES, st.integers(1, 6)),
)
_MIXED_SETS = st.lists(_MIXED_TERMS, min_size=1, max_size=3).map("+".join)


class TestConsonanceCommand:
    def test_fifth_report(self, capsys):
        code, out, _ = run(["consonance", "262*N6", "393*N6"], capsys)
        assert code == 0
        assert "affinity    = 1/3 (0.333)" in out
        assert "harmonicity = 5/9 (0.556)" in out
        assert "total       = 4/9 (0.444)" in out

    def test_score_below_float_range_keeps_its_magnitude(self, capsys):
        # harmonicity is 2 / (10^400 / 2) = 1/(25 * 10^398); float() gives 0.0
        code, out, _ = run(["consonance", "1e400", "2"], capsys)
        assert code == 0
        assert f"harmonicity = 1/25{'0' * 398} (4.000e-400)" in out
        assert f"total       = 1/5{'0' * 399} (2.000e-400)" in out
        assert "affinity    = 0/1 (0.000)" in out

    @settings(max_examples=80, deadline=None)
    @given(_MIXED_SETS, _MIXED_SETS)
    def test_report_is_total_consonance(self, context, complement):
        score = total_consonance(parse_set_expression(context), parse_set_expression(complement))
        expected = "".join(
            f"{label:<11} = {format_ratio(value, True)} "
            f"({_score_text(_display_score(value.numerator, value.denominator))})\n"
            for label, value in (("affinity", score.affinity), ("harmonicity", score.harmonicity),
                                 ("total", score.total))
        )
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["consonance", context, complement])
        assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")

    def test_note_notation(self, capsys):
        code, out, _ = run(["consonance", "C4_6@262", "G4_6@393"], capsys)
        assert code == 0
        assert "4/9" in out

    # harmonicity 3/10^6000, at every interval; Python prints at most 4,300 digits
    TOO_LONG = (
        "error: harmonicity is too long to print: its denominator has 6001 digits, "
        f"more than the limit of {sys.get_int_max_str_digits()}\n"
    )

    def test_report_that_cannot_be_formatted_prints_no_line(self, capsys):
        # the affinity formats; the harmonicity's 6,001-digit denominator does not
        code, out, err = run(["consonance", "1e3000,1e-3000", "3"], capsys)
        assert code == 3
        assert out == ""
        assert err == self.TOO_LONG

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_document_score_too_long_to_print_is_named(self, capsys, output):
        code, out, err = run(["harmonic", "1e3000,1e-3000", "3", "--h", "0", "--lo", "1",
                              "--hi", "2", "--max-den", "1", "--format", output], capsys)
        assert code == 3
        assert out == ""
        assert err == self.TOO_LONG

    @pytest.mark.parametrize(
        "argv, message",
        [
            # set metadata, JSON and text intervals, parameters, a refusal's count
            (["affinitive", "1e4300", "1"], "frequency is too long to print: it has 4301 digits"),
            (["affinitive", "1e2200", "1e-2200"], "interval is too long to print: its numerator has 4401"),
            (["affinitive", "3e2200", "7e-2200", "--format", "text"],
             "interval is too long to print: its numerator has 4401"),
            (["harmonic", "1", "1", "--h", "0", "--lo", "1e-4300", "--hi", "1e-4299", "--max-den", "1"],
             "lo is too long to print: its denominator has 4301"),
            (["superset", "1e3000,1e-3000", "3"], "partial count is too long to print: it has 6001"),
            (["harmonic", "1", "1", "--h", "0", "--hi", "1e4300"], "candidate count is too long to print"),
        ],
        ids=["set", "json", "text", "parameter", "partial-count", "refusal"],
    )
    def test_every_exact_value_too_long_to_print_is_named(self, capsys, argv, message):
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_huge_decimal_exponent_is_refused_before_the_power(self, capsys, sign):
        start = time.process_time()
        code, out, err = run(["consonance", f"1e{sign}10000000", "2"], capsys)
        assert time.process_time() - start < 0.5  # 10^(10^7) alone takes seconds
        assert code == 2
        assert out == ""
        assert "decimal exponent beyond +-4300" in err and "Traceback" not in err


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

    def test_score_below_float_range_keeps_its_magnitude_in_json(self, capsys):
        # harmonicity of {2, 10^400} with 2 or 10^400 is 2 / (10^400 / 2)
        code, out, _ = run(["affinitive", "1e400,2", "3"], capsys)
        assert code == 0
        entries = json.loads(out)["entries"]
        assert [e["harmonicity"] for e in entries] == [f"1/25{'0' * 398}"] * 2
        assert [e["harmonicity_float"] for e in entries] == ["4.000e-400"] * 2
        assert [e["affinity_float"] for e in entries] == [1.0, 1.0]
        assert [e["total_float"] for e in entries] == [0.5, 0.5]

    def test_notes_far_outside_the_span_leave_the_document_unannotated(self, capsys):
        # every note lies about 26,000 octaves above D#8; testing each
        # window exactly took about 29 ms an entry
        _, plain, _ = run(["affinitive", "1e4000*N40", "1*N40"], capsys)
        start = time.process_time()
        code, noted, _ = run(["affinitive", "1e4000*N40", "1*N40", "--notes"], capsys)
        assert time.process_time() - start < 1
        assert code == 0
        assert noted == plain

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["1e400", "2"], "exceeds the float range"),
            (["262", "1e400"], "exceeds the float range"),
            (["262", "262", "--hi", "inf"], "invalid sweep range"),
            (["262", "262", "--hi", "nan"], "invalid sweep range"),
            (["262", "262", "--lo", "nan"], "invalid sweep range"),
            (["262", "262", "--hi", "1e308"], "past the float range"),
            (["262", "262", "--chi-star", "nan"], "chi_star"),
            (["262", "262", "--chi-star", "inf"], "chi_star"),
            (["1e-400,1", "1"],
             "partial 1 of the contextual set (1.000e-400) is below the float range"),
        ],
        ids=["huge-context", "huge-complement", "hi-inf", "hi-nan", "lo-nan", "hi-overflows",
             "chi-nan", "chi-inf", "tiny-context"],
    )
    def test_non_finite_input_is_domain_error(self, capsys, argv, message):
        code, out, err = run(["curve", *argv, "--steps", "5"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_pair_without_a_coincidence_point_is_refused_without_a_warning(self, capsys):
        code, out, err = run(["curve", "262", "1e-320", "--steps", "3"], capsys)
        assert (code, out, err) == (3, "", "error: dissonance cannot be negative or NaN\n")


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

    @pytest.mark.parametrize("command", ["reduce-octave", "export-scl"])
    @pytest.mark.parametrize("interval", ["0", "-3/2"])
    def test_non_positive_interval_is_domain_error(self, tmp_path, capsys, command, interval):
        # the first entry, so no entry below it fails the order check first
        _, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        data = json.loads(out)
        data["entries"][0]["interval"] = interval
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(data))
        code, out, err = run([command, "--in", str(doc_path)], capsys)
        assert (code, out) == (3, "")
        assert err == "error: invalid tuning document: entry 0 field 'interval' must be positive\n"

    @pytest.mark.parametrize("command", ["reduce-octave", "export-scl"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("parameters", 5, "'parameters' must be an object, not int"),
            ("parameters", [], "'parameters' must be an object, not list"),
            ("context", 262, "'context' must be a string, not int"),
            ("complement", None, "'complement' must be a string, not NoneType"),
            ("generator", ["x"], "'generator' must be a string, not list"),
        ],
        ids=["int-parameters", "list-parameters", "int-context", "null-complement",
             "list-generator"],
    )
    def test_wrong_typed_metadata_is_domain_error(
        self, tmp_path, capsys, command, field, value, message
    ):
        _, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        data = json.loads(out)
        data["metadata"][field] = value
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(data))
        code, out, err = run([command, "--in", str(doc_path)], capsys)
        assert code == 3
        assert out == ""
        assert "invalid tuning document: metadata field " + message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["reduce-octave", "export-scl"])
    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,
            '{"metadata": {"parameters": ' + '{"a": ' * 991 + "1" + "}" * 991
            + '}, "entries": []}',
        ],
        ids=["open-brackets", "deep-parameters"],
    )
    def test_deeply_nested_document_is_domain_error(self, tmp_path, capsys, command, text):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(text)
        code, out, err = run([command, "--in", str(doc_path)], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: invalid tuning document JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "field, value, extra",
        [
            ("context", "1\n2", []),
            ("complement", "1\r2", []),
            ("generator", "a\nb", []),
            (None, None, ["--name", "c4\nx"]),
        ],
        ids=["context", "complement", "generator", "name"],
    )
    def test_export_scl_refuses_a_line_break_in_its_header(
        self, tmp_path, capsys, field, value, extra
    ):
        _, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        reduced_path = tmp_path / "doc.json"
        reduced_path.write_text(out)
        _, out, _ = run(["reduce-octave", "--in", str(reduced_path)], capsys)
        data = json.loads(out)
        if field is not None:
            data["metadata"][field] = value
        reduced_path.write_text(json.dumps(data))
        code, out, err = run(["export-scl", "--in", str(reduced_path), *extra], capsys)
        assert code == 3
        assert out == ""
        what = f"metadata field {field!r}" if field else "scale name"
        assert err == f"error: {what} holds a line break, which would split a Scala header line\n"

    def test_export_scl_refuses_a_generator_read_as_a_comment(self, tmp_path, capsys):
        _, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(out)
        _, out, _ = run(["reduce-octave", "--in", str(doc_path)], capsys)
        data = json.loads(out)
        data["metadata"]["generator"] = "!x"
        doc_path.write_text(json.dumps(data))
        code, out, err = run(["export-scl", "--in", str(doc_path)], capsys)
        assert code == 3
        assert out == ""
        assert err == (
            "error: metadata field 'generator' starts with '!', which would make the Scala "
            "description line a comment\n"
        )

    @pytest.mark.parametrize("command", ["reduce-octave", "export-scl"])
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_json_constant_is_domain_error(self, tmp_path, capsys, command, constant):
        _, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(out.replace('"parameters": {}', f'"parameters": {{"x": {constant}}}'))
        code, out, err = run([command, "--in", str(doc_path)], capsys)
        assert code == 3
        assert out == ""
        assert err == f"error: invalid tuning document JSON: {constant} is not a JSON value\n"

    def test_reduce_folds_intervals_of_thousands_of_octaves_quickly(self, tmp_path, capsys):
        # 200 intervals i*10^4300, about 14,300 octaves up: folding one
        # octave at a time took 26 s of CPU
        _, out, _ = run(["affinitive", "262*N6", "262*N6"], capsys)
        data = json.loads(out)
        data["entries"] = [
            {"interval": f"{i}e4300", "affinity": "1/1", "harmonicity": "1/1"}
            for i in range(1, 201)
        ]
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(data))
        start = time.process_time()
        code, reduced, _ = run(["reduce-octave", "--in", str(doc_path)], capsys)
        assert time.process_time() - start < 1
        assert code == 0
        intervals = [F(e["interval"]) for e in json.loads(reduced)["entries"]]
        # i and 2i fold onto one interval: one entry per odd i
        assert len(intervals) == 100 and all(1 <= t < 2 for t in intervals)

    def test_metadata_fields_may_be_absent(self, tmp_path, capsys):
        entries = [
            {"interval": "1/1", "affinity": "1/1", "harmonicity": "1/1"},
            {"interval": "3/2", "affinity": "1/2", "harmonicity": "1/2"},
        ]
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps({"metadata": {}, "entries": entries}))
        code, out, _ = run(["export-scl", "--in", str(doc_path)], capsys)
        assert code == 0
        assert out == "! tuning.scl\ntuning tuning; F=?; F'=?\n2\n3/2\n2/1\n"


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

    @pytest.mark.parametrize("label", ["C9999_6", "C100_6", "E8_2", "B-1_3"])
    def test_note_outside_the_span_is_domain_error(self, capsys, label):
        code, out, err = run(["consonance", label, "262"], capsys)
        assert code == 3
        assert out == ""
        assert f"note {label} is outside the supported note span C0..D#8" in err
        assert "Traceback" not in err


def _over_cap_argv(count):
    """One command per way a partial count reaches FrequencySet.harmonic."""
    return [
        ["affinitive", f"262*N{count}", "1"],
        ["superset", "262", "262", "--n", str(count - 1)],  # singleton: 1 + n partials
        ["consonance", f"C4_{count}", "262"],
        ["figure", "fig5_7", "--partials", str(count)],
    ]


@pytest.mark.parametrize(
    "argv",
    _over_cap_argv(MAX_HARMONIC_PARTIALS + 1) + _over_cap_argv(99_999_999_999),
    ids=lambda argv: " ".join(argv),
)
def test_partial_count_above_cap_is_refused_before_allocating(argv, capsys):
    tracemalloc.start()
    try:
        code, out, err = run(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert "exceeds the limit of 1048576" in err and "Traceback" not in err
    assert peak < 2**22  # 2^20 + 1 partials would take tens of MiB


_SPAN = "the supported note span C0..D#8 (about 15.89 Hz to 5123.9 Hz)"


@pytest.mark.parametrize(
    "term, code, message",
    [
        ("262*N" + "9" * 5000, 3, "partial count 99999999999999999999999999999... exceeds the limit of 1048576"),
        ("C4_" + "9" * 5000, 3, "partial count 99999999999999999999999999999... exceeds the limit of 1048576"),
        ("C" + "9" * 5000 + "_6", 3, f"note C9999999999999999999999999999... is outside {_SPAN}"),
        ("C-" + "9" * 5000 + "_6", 3, f"note C-999999999999999999999999999... is outside {_SPAN}"),
        ("1/" + "7" * 200_000, 2, "cannot parse ratio '1/777777777777777777777777777...' (expected 'p/q' or a decimal)"),
        ("7" * 100 + "*N0", 2, "harmonic shorthand '77777777777777777777777777777...' needs at least 1 partial"),
        ("C4_6@300." + "0" * 100 + "1", 3,
         f"frequency/name mismatch: 3{'0' * 28}... Hz falls in D4, not C4"),
        ("C4_6@1" + "0" * 100, 3, f"frequency 1{'0' * 28}... Hz is outside {_SPAN}"),
        ("-" + "9" * 4000, 3, f"non-positive frequency -{'9' * 28}..."),
    ],
    ids=["count", "note-count", "octave", "negative-octave", "ratio", "shorthand", "mismatch", "span",
         "non-positive"],
)
def test_long_notation_is_refused_in_one_short_line(term, code, message, capsys):
    # no more than 32 characters of the offending text are quoted, and no
    # digit run reaches int()'s own 4,300-digit message
    assert run(["consonance", term, "262"], capsys) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["figure", "x" * 5000], 3,
         f"error: unknown figure id '{'x' * 29}...'; supported: {', '.join(supported_figures())}"),
        (["harmonic", "1", "1", "--h", "0", "--max-den", "9" * 5000], 2,
         f"toneset harmonic: error: argument --max-den: invalid int value: '{'9' * 29}...'"),
        (["harmonic", "1", "1", "--h", "1/" + "7" * 5000], 2,
         f"toneset harmonic: error: argument --h: cannot parse ratio '1/{'7' * 27}...' "
         "(expected 'p/q' or a decimal)"),
        (["curve", "1", "1", "--steps", "9" * 5000], 2,
         f"toneset curve: error: argument --steps: invalid int value: '{'9' * 29}...'"),
        (["curve", "1", "1", "--chi-star", "x" * 5000], 2,
         f"toneset curve: error: argument --chi-star: invalid float value: '{'x' * 29}...'"),
        (["thomae", "--max-den", "12", "--lo", "1e99999"], 2,
         "toneset thomae: error: argument --lo: cannot parse ratio '1e99999': decimal exponent "
         "beyond +-4300"),
        # 4,000 digits: int() reads them, and the domain refusal quotes them
        (["harmonic", "1", "1", "--h", "0", "--max-den", "9" * 4000], 3,
         f"error: at least 10280930023 candidate intervals p/q in [1/8, 8] with p <= 7{'9' * 28}... "
         f"and q <= {'9' * 29}... exceed the limit of 4194304"),
        (["curve", "1", "1", "--steps", "9" * 4000], 3,
         f"error: {'9' * 29}... steps exceed the limit of 4194304"),
        (["superset", "1", "1", "--n", "9" * 4000], 3,
         f"error: partial count 1{'0' * 28}... exceeds the limit of 1048576"),
        (["harmonic", "1", "1", "--h", "0", "--lo", "9" * 4000, "--hi", "1"], 3,
         f"error: invalid range [{'9' * 29}..., 1]"),
    ],
    ids=["figure", "max-den", "h", "steps", "chi-star", "exponent", "max-den-walk", "steps-sweep",
         "superset-n", "range"],
)
def test_long_option_values_are_refused_in_one_short_line(argv, code, message, capsys):
    # argparse prints its usage lines, then the one error line
    status, out, err = run(argv, capsys)
    assert (status, out, err.splitlines()[-1]) == (code, "", message)
    assert all("error" not in line for line in err.splitlines()[:-1])
    assert max(map(len, err.splitlines())) <= 220


def test_leading_zeros_of_a_count_are_read_past_the_digit_limit(capsys):
    # the count is 6 however many zeros lead it
    padded = run(["consonance", "262*N" + "0" * 5000 + "6", "C4_" + "0" * 5000 + "6"], capsys)
    assert padded == run(["consonance", "262*N6", "C4_6"], capsys)
    assert padded[0] == 0


def test_superset_table_above_cap_is_refused_before_allocating(capsys):
    # supersets of 3,000 partials each pair into 5,472,375 reduced intervals
    tracemalloc.start()
    try:
        code, out, err = run(["superset", "1,3000", "1,3000"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert (
        "5472375 candidate intervals p/q in [1/3000, 3000] with p <= 3000 and q <= 3000 "
        "exceed the limit of 4194304"
    ) in err
    assert "Traceback" not in err
    assert peak < 2**22  # the table would take gigabytes


def test_superset_refusal_builds_no_superset(capsys):
    # k and k' come from the sets' top multipliers: supersets of 1,000,001
    # partials each would take seconds and hundreds of MiB to build
    argv = ["superset", "1", "1", "--n", "1000000", "--m", "1000000"]
    start = time.process_time()
    code, out, err = run(argv, capsys)
    assert time.process_time() - start < 1
    tracemalloc.start()
    try:
        assert run(argv, capsys) == (code, out, err)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert "error: at least " in err and "candidate intervals p/q in [1/1000001, 1000001]" in err
    assert "Traceback" not in err
    assert peak < 2**24


def test_affinitive_table_above_cap_is_refused_before_allocating(capsys):
    # 3,000 x 3,000 partial pairs: the pairs alone would take about a GiB
    start = time.process_time()
    tracemalloc.start()
    try:
        code, out, err = run(["affinitive", "1*N3000", "1*N3000"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 1
    assert code == 3
    assert out == ""
    assert (
        "9000000 candidate intervals f/f' from 3000 x 3000 partials exceed the limit of 4194304"
    ) in err
    assert "Traceback" not in err
    assert peak < 2**22


def test_harmonic_table_above_cap_is_refused_before_allocating(capsys):
    # about 1.2e12 candidates: the walk would run until memory is gone
    tracemalloc.start()
    try:
        code, out, err = run(
            ["harmonic", "1", "1", "--h", "0", "--hi", "1000000", "--max-den", "2000"], capsys
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert "1216587847926 candidate intervals" in err and "limit of 4194304" in err
    assert "Traceback" not in err
    assert peak < 2**22


def test_harmonic_threshold_bounds_what_the_cap_would_refuse(capsys):
    # the same bounds with h = 1/12: single partials clear it only for
    # p, q <= 23, so the rectangle walk serves the request
    start = time.process_time()
    code, out, _ = run(
        ["harmonic", "1", "1", "--h", "1/12", "--hi", "1000000", "--max-den", "2000"], capsys
    )
    assert time.process_time() - start < 0.5
    assert code == 0
    expected = sorted({F(p, q) for p in range(1, 24) for q in range(1, 24)})
    intervals = [F(e["interval"]) for e in json.loads(out)["entries"]]
    assert intervals == [t for t in expected if t >= F(1, 8)]


@pytest.mark.parametrize("steps", [MAX_TABLE_ENTRIES + 1, 10**12])
@pytest.mark.parametrize(
    "argv",
    [["curve", "1", "1"], ["figure", "fig4_2"]], ids=["curve", "fig4_2"],
)
def test_sweep_steps_above_cap_are_refused_before_allocating(argv, steps, capsys):
    import toneset.dissonance  # noqa: F401  numpy's first import is not the sweep's
    tracemalloc.start()
    try:
        code, out, err = run([*argv, "--steps", str(steps)], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert f"{steps} steps exceed the limit of 4194304" in err and "Traceback" not in err
    assert peak < 2**22  # the t grid alone would take 32 MiB or more


@pytest.mark.parametrize(
    "argv, message",
    [
        # 1,400 + 1,400 partials (3,918,600 pairs) are served
        (["1*N1700", "1*N1700"], "5778300 partial pairs from 1700 + 1700 partials"),
        (["1*N2900", "1"], "4206450 partial pairs from 2900 + 1 partials"),
    ],
    ids=["1700+1700", "2900+1"],
)
def test_sweep_pairs_above_cap_are_refused_before_allocating(argv, message, capsys):
    import toneset.dissonance  # noqa: F401  numpy's first import is not the sweep's
    start = time.process_time()
    tracemalloc.start()
    try:
        code, out, err = run(["curve", *argv, "--steps", "2"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 1
    assert code == 3
    assert out == ""
    assert err == f"error: {message} exceed the limit of 4194304\n"
    assert peak < 2**24  # the pair arrays would take hundreds of MiB


# --- one parser per process, numpy only for roughness ------------------------

_SRC = str(Path(toneset.__file__).resolve().parents[1])


def _python(code, *args):
    """Run a fresh interpreter on this source tree; returns its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    return done.stdout


def test_numpy_loads_only_for_roughness():
    out = _python(
        "import sys\n"
        "from toneset.cli import main\n"
        "main(['consonance', '1,2,3', '2,3'])\n"
        "before = 'numpy' in sys.modules\n"
        "main(['curve', '1,2,3', '2,3', '--steps', '5'])\n"
        "print(before, 'numpy' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False True"


def test_parser_reuse_leaks_no_state(capsys):
    first = ["harmonic", "1", "1", "--h", "1/2", "--lo", "1/2", "--hi", "2", "--max-den", "5"]
    second = ["harmonic", "1", "1", "--h", "0", "--max-den", "5"]
    assert run(first, capsys)[0] == 0
    code, out, _ = run(second, capsys)
    assert code == 0
    assert run(["harmonic", "1", "1"], capsys)[0] == 2  # missing --h
    code, version, _ = run(["--version"], capsys)
    assert (code, version) == (0, f"toneset {toneset.__version__}\n")
    fresh = _python("import sys; from toneset.cli import main; main(sys.argv[1:])", *second)
    assert out == fresh
    assert json.loads(out)["metadata"]["parameters"] == {
        "h": "0/1", "lo": "1/8", "hi": "8/1", "max_den": 5
    }


def test_roughness_names_resolve():
    assert toneset.dissonance_curve.__module__ == "toneset.dissonance"
    assert toneset.CurvePoint(1.0, 0.5).dissonance == 0.5
    names = {}
    exec("from toneset import *", names)
    assert set(toneset.__all__) <= names.keys()
    assert set(toneset.__all__) <= set(dir(toneset))
    with pytest.raises(AttributeError):
        toneset.no_such_name


# the public names of the package at the commit that made it re-export each
# module's __all__; a name added or dropped must be added or dropped here
_PUBLIC_NAMES = {
    "ConsonanceScore", "CurvePoint", "DEFAULT_PARAMS", "DissonanceParams", "FrequencySet", "NoteName",
    "ParseError", "Ratio", "TuningDocument", "TuningEntry", "TuningTable", "__version__",
    "affinitive_intervals", "affinitive_tuning", "affinity", "canonical_set_expression", "cents",
    "dissonance_curve", "emit_figure_data", "enumerate_rationals", "export_scl", "fold_to_octave",
    "format_ratio", "format_set", "gcd_set", "grid_frequency", "harmonic_intervals", "harmonic_set",
    "harmonic_superset", "harmonic_tuning", "harmonicity", "note_name", "note_set", "octave_reduce",
    "pair_roughness", "parse_ratio", "parse_set_expression", "rational_gcd", "rational_lcm",
    "spectrum_roughness", "superset_tuning", "supported_figures", "thomae_classical",
    "thomae_modified", "to_ratio", "total_consonance", "total_period", "transpose",
}


def test_package_names_are_each_module_all_once():
    from toneset import consonance, core, dissonance, document, figures, notation, notes, tuning

    modules = (core, notes, consonance, tuning, document, notation, figures)
    declared = [name for module in modules for name in module.__all__]
    assert toneset.__all__ == ["__version__", *declared, *sorted(toneset._DISSONANCE_NAMES)]
    assert len(set(toneset.__all__)) == len(toneset.__all__) == 48
    assert set(toneset.__all__) == _PUBLIC_NAMES
    assert toneset._DISSONANCE_NAMES == set(dissonance.__all__)


# --- fuzzing: whatever the argv, main() exits 0, 2 or 3 and never raises -----

_COUNTS = st.one_of(
    st.integers(0, 12), st.integers(MAX_HARMONIC_PARTIALS + 1, 10**12)
).map(str)
# junk never looks like an option: a prefix of -o/--out or --in would touch files
_JUNK = st.text(max_size=8).filter(lambda s: not s.startswith("-"))
_RATIOS = st.sampled_from(["1", "2", "3/2", "5/4", "262", "393", "2.76", "0.5", "1e400",
                           "1e3000", "1e-3000", "1e4301", "1e-10000000", "0", "-3", "1/0",
                           "x", "0262.500", "1.", ".5", ".", "1_0.5", "١.٥", "1.2.3",
                           "1" * 4301 + ".5", "5." + "1" * 4301, "1" * 4000 + "." + "1" * 4000])
_INTEGER_LISTS = st.lists(st.integers(1, 64).map(str), min_size=1, max_size=4).map(",".join)
# integer partials only: harmonic supersets of these stay at most 64 + n partials
_SMALL_SETS = st.lists(
    st.one_of(_INTEGER_LISTS, st.builds("{}*N{}".format, st.integers(1, 64), _COUNTS)),
    min_size=1, max_size=3,
).map("+".join)
_TERMS = st.one_of(
    _INTEGER_LISTS,
    st.lists(_RATIOS, min_size=1, max_size=4).map(",".join),
    st.builds("{}*N{}".format, _RATIOS, _COUNTS),
    # B-1, C9 and beyond lie outside the naming span C0..D#8
    st.builds("{}_{}{}".format,
              st.sampled_from(["C4", "G4", "A4", "Bb3", "C#5", "H2", "C9", "B-1", "C9999"]),
              _COUNTS, st.sampled_from(["", "@262", "@440", "@x"])),
    _JUNK,
)
_SETS = st.lists(_TERMS, min_size=1, max_size=3).map("+".join)
_BOUNDS = st.sampled_from(["1/4", "1/2", "1", "3/2", "2", "4", "0", "-1", "1e-3000",
                           "1e10000000", "x"])
_DEN = st.integers(-1, 24).map(str)
# a sweep of more steps than the cap would allocate gigabytes before the fix
_STEPS = st.one_of(st.integers(-1, 64), st.integers(MAX_TABLE_ENTRIES + 1, 10**15)).map(str)
_FLOATS = st.sampled_from(["1", "1.5", "2", "2.1", "0", "-1", "nan", "inf", "x"])
_DOC_FLAGS = st.lists(st.sampled_from(
    [["--notes"], ["--format", "text"], ["--format", "json"], ["--order", "consonance"]]
), max_size=3).map(lambda flags: [token for flag in flags for token in flag])
# usually nothing; now and then a stray argument or an unknown flag
_EXTRA = st.sampled_from([0, 0, 0, 1, 2]).flatmap(
    lambda n: st.lists(_JUNK | st.sampled_from(["--bogus", "--format"]), min_size=n, max_size=n)
)


def _options(*pairs):
    """Any subset of the given (flag, strategy) options, as argv tokens."""
    return st.tuples(*(
        st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v])) for flag, value in pairs
    )).map(lambda groups: [token for group in groups for token in group])


_DOCUMENT = json.dumps({
    "metadata": {"generator": "affinitive", "context": "262,524", "complement": "262,524"},
    "entries": [
        {"interval": "1/2", "affinity": "1/2", "harmonicity": "1/2", "total": "1/2"},
        {"interval": "1/1", "affinity": "1/1", "harmonicity": "1/1", "note": "C4"},
        {"interval": "2/1", "affinity": "1/2", "harmonicity": "1/2"},
    ],
})
# within one octave, so export-scl reaches the metadata
_REDUCED = json.dumps({
    "metadata": {"generator": "affinitive", "context": "262,524", "complement": "262,524"},
    "entries": json.loads(_DOCUMENT)["entries"][1:],
})
_GOOD_DOCUMENTS = st.sampled_from([_DOCUMENT, _REDUCED])
_STDIN = st.one_of(
    _GOOD_DOCUMENTS,
    st.sampled_from([_DOCUMENT.replace('"2/1"', '"1/3"'), "{}", "not json",
                     '{"metadata": {}, "entries": [3]}', '{"metadata": {}, "entries": []}']),
    # a document with one metadata field of the wrong JSON type
    st.builds(
        lambda doc, field, value: doc.replace(f'"{field}": "', f'"{field}": {value}, "x": "'),
        _GOOD_DOCUMENTS,
        st.sampled_from(["generator", "context", "complement"]),
        st.sampled_from(["262", "null", "true", '["x"]', "{}"]),
    ),
    st.builds(
        lambda doc, value: doc.replace('"metadata": {', f'"metadata": {{"parameters": {value}, '),
        _GOOD_DOCUMENTS,
        st.sampled_from(["5", "null", '"h=1"', "[]", "{}"]),
    ),
    st.text(max_size=20),
)

_ARGV = st.one_of(
    st.tuples(st.sampled_from(["consonance", "affinitive"]), _SETS, _SETS, _DOC_FLAGS),
    st.tuples(st.just("harmonic"), _SETS, _SETS, st.just(["--h"]), _BOUNDS | _JUNK,
              _options(("--lo", _BOUNDS), ("--hi", _BOUNDS), ("--max-den", _DEN)), _DOC_FLAGS),
    st.tuples(st.just("superset"), _SMALL_SETS, _SMALL_SETS,
              _options(("--n", st.integers(-1, 4).map(str) | _COUNTS),
                       ("--m", st.integers(-1, 4).map(str))), _DOC_FLAGS),
    st.tuples(st.just("thomae"), st.just(["--max-den"]), _DEN,
              _options(("--lo", _BOUNDS), ("--hi", _BOUNDS)), _DOC_FLAGS),
    st.tuples(st.just("curve"), _SETS, _SETS, st.just(["--steps"]), _STEPS,
              _options(("--lo", _FLOATS), ("--hi", _FLOATS), ("--chi-star", _FLOATS))),
    st.tuples(st.just("figure"), st.sampled_from(supported_figures()) | _JUNK,
              st.just(["--max-den"]), _DEN, st.just(["--steps"]), _STEPS,
              _options(("--partials", st.integers(1, 12).map(str) | _COUNTS))),
    st.just(["reduce-octave"]),
    st.tuples(st.just("export-scl"), _options(("--name", _JUNK)), st.sampled_from([[], ["--cents"]])),
    st.tuples(_JUNK, _JUNK),
).map(lambda parts: [t for part in parts for t in ([part] if isinstance(part, str) else part)])


def _assert_exits_cleanly(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert "set_int_max_str_digits" not in err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_ARGV, extra=_EXTRA, stdin=_STDIN)
def test_fuzzed_command_lines_exit_cleanly(argv, extra, stdin):
    _assert_exits_cleanly(argv + extra, stdin)


# documents read from stdin, without the argv that mostly fails before reading them
@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=st.sampled_from([["reduce-octave"], ["export-scl"], ["export-scl", "--cents"]]),
       stdin=_STDIN)
def test_fuzzed_documents_exit_cleanly(argv, stdin):
    _assert_exits_cleanly(argv, stdin)
