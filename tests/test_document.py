import json
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toneset import (
    ConsonanceScore,
    FrequencySet,
    TuningDocument,
    TuningEntry,
    affinitive_tuning,
    canonical_set_expression,
    cents,
    export_scl,
    format_ratio,
    harmonic_set,
    octave_reduce,
    parse_ratio,
)
from toneset import document
from toneset.cli import _render_text
from toneset.core import _display_score
from toneset.document import csv_text, table_csv

C4 = harmonic_set(262, 6)


def c4_document(annotate=False):
    table = affinitive_tuning(C4, C4)
    expr = canonical_set_expression(C4)
    return TuningDocument.from_table(
        table, expr, expr, annotate_root=F(262) if annotate else None
    )


def reduced_document():
    table = octave_reduce(affinitive_tuning(C4, C4), C4, C4)
    expr = canonical_set_expression(C4)
    return TuningDocument.from_table(table, expr, expr, parameters={"octave_reduced": True})


class TestJsonRoundTrip:
    def test_export_import_export_is_byte_identical(self):
        first = c4_document(annotate=True).to_json()
        second = TuningDocument.from_json(first).to_json()
        assert first == second

    def test_exact_fields_parse_back_identically(self):
        doc = c4_document()
        data = json.loads(doc.to_json())
        for raw, entry in zip(data["entries"], doc.entries):
            assert parse_ratio(raw["interval"]) == entry.interval
            assert parse_ratio(raw["affinity"]) == entry.score.affinity
            assert parse_ratio(raw["harmonicity"]) == entry.score.harmonicity
            assert parse_ratio(raw["total"]) == entry.score.total

    def test_inconsistent_total_rejected(self):
        data = json.loads(c4_document().to_json())
        data["entries"][0]["total"] = "1/7"
        with pytest.raises(ValueError, match="mean"):
            TuningDocument.from_json(json.dumps(data))

    def test_unsorted_entries_rejected(self):
        data = json.loads(c4_document().to_json())
        data["entries"].reverse()
        with pytest.raises(ValueError, match="strictly increasing"):
            TuningDocument.from_json(json.dumps(data))

    @pytest.mark.parametrize("field", ["interval", "affinity", "harmonicity"])
    def test_missing_entry_field_names_entry_and_field(self, field):
        data = json.loads(c4_document().to_json())
        del data["entries"][3][field]
        with pytest.raises(ValueError, match=f"entry 3 lacks '{field}'"):
            TuningDocument.from_json(json.dumps(data))

    @pytest.mark.parametrize("value", [3, None, ["1/2"], {"p": 1}])
    def test_non_string_entry_field_names_entry_and_field(self, value):
        data = json.loads(c4_document().to_json())
        data["entries"][0]["interval"] = value
        with pytest.raises(ValueError, match="entry 0 field 'interval' must be"):
            TuningDocument.from_json(json.dumps(data))
        data = json.loads(c4_document().to_json())
        data["entries"][1]["total"] = value
        with pytest.raises(ValueError, match="entry 1 field 'total' must be"):
            TuningDocument.from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "text",
        ['{"metadata": {}, "entries": {}}', '{"metadata": [], "entries": []}',
         '{"metadata": {}, "entries": [3]}'],
    )
    def test_malformed_structure_rejected(self, text):
        with pytest.raises(ValueError, match="invalid tuning document"):
            TuningDocument.from_json(text)

    def test_missing_sections_rejected(self):
        with pytest.raises(ValueError):
            TuningDocument.from_json("{}")
        with pytest.raises(ValueError):
            TuningDocument.from_json("not json")

    def test_metadata_contents(self):
        doc = c4_document()
        assert doc.metadata["generator"] == "affinitive"
        assert doc.metadata["tool"] == "toneset"
        assert doc.metadata["context"] == canonical_set_expression(C4)

    def test_cents_rendered_to_four_decimals(self):
        data = json.loads(c4_document().to_json())
        fifth = next(e for e in data["entries"] if e["interval"] == "3/2")
        assert fifth["cents"] == 701.955

    def test_tiny_harmonicity_keeps_precision(self):
        inharmonic = FrequencySet(
            262 * F(r) for r in ("1", "2.76", "5.41", "8.94", "13.35", "18.65")
        )
        table = affinitive_tuning(inharmonic, inharmonic)
        expr = canonical_set_expression(inharmonic)
        doc = TuningDocument.from_table(table, expr, expr)
        data = json.loads(doc.to_json())
        tiny = [e["harmonicity_float"] for e in data["entries"] if e["harmonicity_float"] != 0]
        assert tiny and all(0 < v < 0.0005 or v == round(v, 3) for v in tiny)
        # scientific notation survives in the serialised text
        assert "e-" in doc.to_json()

    def test_unannotated_document_holds_the_table_entries(self):
        table = affinitive_tuning(C4, C4)
        expr = canonical_set_expression(C4)
        assert TuningDocument.from_table(table, expr, expr).entries is table.entries
        annotated = TuningDocument.from_table(table, expr, expr, annotate_root=F(262))
        assert [(e.interval, e.score) for e in annotated.entries] == [
            (e.interval, e.score) for e in table.entries
        ]

    def test_note_annotation(self):
        doc = c4_document(annotate=True)
        notes = {str(e.interval): e.note for e in doc.entries}
        assert notes["1"] == "C4"
        assert notes["3/2"] == "G4"
        assert notes["1/6"] == "F1"

    def test_note_annotation_outside_span_is_omitted(self):
        high = harmonic_set(2000, 3)
        table = affinitive_tuning(high, high)
        expr = canonical_set_expression(high)
        doc = TuningDocument.from_table(table, expr, expr, annotate_root=F(2000))
        notes = {str(e.interval): e.note for e in doc.entries}
        assert notes["3"] is None  # 6000 Hz is above the naming span
        assert notes["1"] == "B6"


class TestCsv:
    def test_header_and_line_endings(self):
        text = c4_document().to_csv()
        lines = text.split("\n")
        assert lines[0] == "interval_ratio,cents,affinity,harmonicity,total"
        assert "\r" not in text
        assert len(lines) == 23 + 2  # header + rows + trailing newline

    def test_fifth_row(self):
        rows = c4_document().to_csv().splitlines()
        fifth = next(r for r in rows if r.startswith("3/2,"))
        assert fifth.split(",")[1] == "701.9550"


def fraction_table_csv(entries):
    """The reference table_csv: every column through Fraction arithmetic."""
    return csv_text(
        ["interval_ratio", "cents", "affinity", "harmonicity", "total"],
        (
            [
                format_ratio(e.interval, always_slash=True),
                f"{cents(e.interval):.4f}",
                repr(float(e.score.affinity)),
                repr(float(e.score.harmonicity)),
                repr(float(e.score.total)),
            ]
            for e in entries
        ),
    )


# numerators and denominators well past 2^1024, where a float overflows and
# a quotient can land in the subnormal range or underflow to 0
_HUGE = st.integers(1, 2**1100)
_UNIT = st.builds(lambda x, y: F(min(x, y), max(x, y)), st.integers(0, 2**1100), _HUGE)
_ENTRIES = st.lists(
    st.builds(
        lambda t, a, h: TuningEntry(t, ConsonanceScore(a, h)),
        st.builds(F, _HUGE, _HUGE),
        _UNIT,
        _UNIT,
    ),
    max_size=20,
)


class TestTableCsvFromIntegers:
    @settings(max_examples=300, deadline=None)
    @given(_ENTRIES)
    def test_rows_equal_the_fraction_formatting(self, entries):
        assert table_csv(entries) == fraction_table_csv(entries)

    def test_interval_too_long_to_print_is_named(self):
        entry = TuningEntry(F(10**4400), ConsonanceScore(F(1), F(1)))
        for text in (table_csv, lambda entries: document._entry_dict(entries[0], document._score_fields())):
            with pytest.raises(ValueError, match="^interval is too long to print: its numerator has 4401"):
                text([entry])

    def test_scores_beyond_the_float_range(self):
        huge = FrequencySet(["1e400", "2", "3e-400"])
        entries = affinitive_tuning(huge, FrequencySet(["3", "1e-400"])).entries
        assert max(e.score.harmonicity.denominator for e in entries) > 2**1024
        assert table_csv(entries) == fraction_table_csv(entries)


# a few values shared by the scores of many entries, as in generated tables:
# equal scores are often distinct objects, and unequal ones share terms
_REPEATING_ENTRIES = st.lists(
    _UNIT | st.fractions(0, 1, max_denominator=6), min_size=1, max_size=4
).flatmap(
    lambda values: st.lists(
        st.builds(
            TuningEntry,
            st.builds(F, _HUGE, _HUGE),
            st.builds(ConsonanceScore, st.sampled_from(values), st.sampled_from(values)),
        ),
        max_size=20,
    )
)


def reference_entry_dict(entry):
    """A JSON document entry, every field formatted from its Fraction."""
    values = (entry.score.affinity, entry.score.harmonicity, entry.score.total)
    data = {
        "interval": format_ratio(entry.interval, always_slash=True),
        "cents": round(cents(entry.interval), 4),
    }
    data.update(zip(("affinity", "harmonicity", "total"),
                    (format_ratio(v, always_slash=True) for v in values)))
    data.update(zip(("affinity_float", "harmonicity_float", "total_float"),
                    (_display_score(v) for v in values)))
    return data


class TestPerCallMemos:
    """Each distinct score is formatted once per call, and no call sees
    another's memo."""

    @settings(max_examples=200, deadline=None)
    @given(_REPEATING_ENTRIES)
    def test_memoised_fields_equal_the_fraction_formatting(self, entries):
        entries = sorted({e.interval: e for e in entries}.values(), key=lambda e: e.interval)
        assert table_csv(entries) == fraction_table_csv(entries)
        doc = TuningDocument({}, tuple(entries))
        assert doc.as_dict()["entries"] == [reference_entry_dict(e) for e in entries]

    @staticmethod
    def distinct_scores(doc):
        count = len({e.score for e in doc.entries})
        assert count < len(doc.entries)  # the memo has something to share
        return count

    def test_csv_cells_per_call(self):
        doc = c4_document()
        distinct = self.distinct_scores(doc)
        with mock.patch.object(document, "_float_cells", wraps=document._float_cells) as spy:
            first = doc.to_csv()
            assert spy.call_count == distinct
            assert doc.to_csv() == first
            assert spy.call_count == 2 * distinct

    @pytest.mark.parametrize("render", [
        lambda doc: doc.to_json(),
        lambda doc: _render_text(doc, "interval"),
        lambda doc: _render_text(doc, "consonance"),
    ])
    def test_score_fields_per_call(self, render):
        doc = c4_document()
        distinct = self.distinct_scores(doc)
        with mock.patch.object(document, "_display_score", wraps=_display_score) as spy:
            first = render(doc)
            assert spy.call_count == 3 * distinct
            assert render(doc) == first
            assert spy.call_count == 6 * distinct


class TestExportScl:
    def test_reduced_c4_table(self):
        text = export_scl(reduced_document(), name="c4-affinitive")
        assert text == (
            "! c4-affinitive.scl\n"
            "affinitive tuning; F=262,524,786,1048,1310,1572; F'=262,524,786,1048,1310,1572\n"
            "7\n"
            "6/5\n"
            "5/4\n"
            "4/3\n"
            "3/2\n"
            "8/5\n"
            "5/3\n"
            "2/1\n"
        )

    def test_rational_lines_always_carry_denominator(self):
        text = export_scl(reduced_document())
        pitch_lines = text.splitlines()[3:]
        assert all("/" in line for line in pitch_lines)
        assert pitch_lines[-1] == "2/1"

    def test_cents_lines_flag(self):
        text = export_scl(reduced_document(), cents_lines=True)
        assert text.splitlines()[-1] == "1200.0000"

    def test_unreduced_document_rejected(self):
        with pytest.raises(ValueError, match="reduce-octave"):
            export_scl(c4_document())

    def test_unison_only_document_rejected(self):
        single = FrequencySet([262])
        table = affinitive_tuning(single, single)
        expr = canonical_set_expression(single)
        doc = TuningDocument.from_table(table, expr, expr)
        with pytest.raises(ValueError, match="besides unison"):
            export_scl(doc)
