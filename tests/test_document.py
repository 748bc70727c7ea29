import csv
import io
import json
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toneset import (
    ConsonanceScore,
    FrequencySet,
    TuningDocument,
    TuningEntry,
    TuningTable,
    affinitive_tuning,
    canonical_set_expression,
    cents,
    emit_figure_data,
    export_scl,
    format_ratio,
    harmonic_set,
    harmonic_tuning,
    octave_reduce,
    parse_ratio,
    superset_tuning,
    supported_figures,
)
from toneset import document
from toneset.cli import main
from toneset.core import _display_score, _ratio_terms, _scientific
from toneset.document import _render_text, csv_text, table_csv

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

    def test_to_table_checks_the_order(self):
        # entries out of order, or twice, are refused when the document is
        # made, so every document reads back and its table is in order
        entries = c4_document().entries
        for bad in ((entries[1], entries[0]) + entries[2:], entries[:1] + entries):
            with pytest.raises(ValueError, match="^tuning entries must be strictly increasing by interval$"):
                TuningDocument({"generator": "g"}, bad)
        table = TuningDocument({"generator": "g"}, entries).to_table()
        assert table == TuningTable(entries, "g")

    def test_empty_note_is_kept(self):
        # an empty note name is a note: the document stays annotated
        data = json.loads(c4_document().to_json())
        data["entries"][4]["note"] = ""
        text = json.dumps(data, indent=2, ensure_ascii=False) + "\n"
        doc = TuningDocument.from_json(text)
        assert doc.to_json() == text
        assert [e.note for e in doc.entries] == [None] * 4 + [""] + [None] * 18

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

    @pytest.mark.parametrize("interval", ["0", "0/5", "-0", "-3/2", "-0.5"])
    def test_non_positive_interval_rejected(self, interval):
        data = json.loads(c4_document().to_json())
        data["entries"][0]["interval"] = interval  # no entry below it to fail the order check
        with pytest.raises(
            ValueError, match=r"^invalid tuning document: entry 0 field 'interval' must be positive$"
        ):
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

    @pytest.mark.parametrize("note", [5, {"x": [1]}, ["C4"], True])
    def test_non_string_note_names_entry_and_field(self, note):
        data = json.loads(c4_document(annotate=True).to_json())
        data["entries"][2]["note"] = note
        with pytest.raises(
            ValueError, match=f"entry 2 field 'note' must be a string, not {type(note).__name__}"
        ):
            TuningDocument.from_json(json.dumps(data))
        data["entries"][2]["note"] = None
        assert TuningDocument.from_json(json.dumps(data)).entries[2].note is None

    @pytest.mark.parametrize("note", [5, ["C4"], True])
    def test_constructor_refuses_a_non_string_note_alike(self, note):
        # it used to accept the entry, and to_json then raised a TypeError
        entries = list(c4_document().entries)
        entries[2] = TuningEntry(entries[2].interval, entries[2].score, note)
        with pytest.raises(
            ValueError, match=f"^invalid tuning document: entry 2 field 'note' must be a string, "
            f"not {type(note).__name__}$"
        ):
            TuningDocument({"generator": "g"}, tuple(entries))

    def test_missing_sections_rejected(self):
        with pytest.raises(ValueError):
            TuningDocument.from_json("{}")
        with pytest.raises(ValueError):
            TuningDocument.from_json("not json")

    def test_one_score_per_distinct_score_text(self):
        text = c4_document().to_json()
        with mock.patch.object(document, "_ratio_terms", wraps=_ratio_terms) as spy:
            doc = TuningDocument.from_json(text)
        triples = {(e["affinity"], e["harmonicity"], e["total"]) for e in json.loads(text)["entries"]}
        assert len({id(e.score) for e in doc.entries}) == len(triples) < len(doc.entries)
        # each interval is read, and each distinct triple's three texts once,
        # the first time the triple is met
        expected, seen = [], set()
        for e in json.loads(text)["entries"]:
            triple = (e["affinity"], e["harmonicity"], e["total"])
            expected += [e["interval"], *(() if triple in seen else triple)]
            seen.add(triple)
        assert [call.args[0] for call in spy.call_args_list] == expected
        assert doc.entries == c4_document().entries
        assert doc.to_json() == text

    def test_repeated_score_text_is_checked_where_it_differs(self):
        data = json.loads(c4_document().to_json())
        first, second = data["entries"][3], data["entries"][4]
        second.update(affinity=first["affinity"], harmonicity=first["harmonicity"], total="2/1")
        with pytest.raises(ValueError, match="^inconsistent entry: total 2/1 is not the mean"):
            TuningDocument.from_json(json.dumps(data))

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

    def test_annotation_outside_span_formats_no_frequency(self):
        # a frequency is formatted only into an error that is raised
        table = affinitive_tuning(C4, C4)
        expr = canonical_set_expression(C4)
        with mock.patch("toneset.notes.format_ratio", wraps=format_ratio) as spy:
            doc = TuningDocument.from_table(table, expr, expr, annotate_root=F(7 * 10**4000, 13))
        assert spy.call_count == 0
        assert all(e.note is None for e in doc.entries)


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


def csv_writer_text(header, rows):
    """The reference csv_text: the standard library's CSV writer."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


_HEADER_CELLS = st.sampled_from(
    ["interval_ratio", "cents", "affinity", "harmonicity", "total", "t", "dissonance",
     "thomae", "thomae_modified"]
)
# every kind of cell the package writes: float reprs, 4-decimal cents,
# "n/d" texts, scientific texts and header names
_PACKAGE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda c: f"{c:.4f}"),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(0, 2**200), st.integers(1, 2**200)),
    st.fractions().map(_scientific),
    _HEADER_CELLS,
)


class TestCsvText:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_HEADER_CELLS, min_size=1, max_size=5),
        st.lists(st.lists(_PACKAGE_CELLS, min_size=1, max_size=6), max_size=8),
    )
    def test_equals_the_csv_writer(self, header, rows):
        assert csv_text(header, rows) == csv_writer_text(header, rows)


def float_cell(value):
    """A score cell: its float, or its scientific text where the float reads
    0 for a nonzero score."""
    return repr(float(value)) if float(value) or not value else _scientific(value)


def fraction_table_csv(entries):
    """The reference table_csv: every column through Fraction arithmetic."""
    return csv_text(
        ["interval_ratio", "cents", "affinity", "harmonicity", "total"],
        (
            [
                format_ratio(e.interval, always_slash=True),
                f"{cents(e.interval):.4f}",
                float_cell(e.score.affinity),
                float_cell(e.score.harmonicity),
                float_cell(e.score.total),
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
        for text in (table_csv, lambda entries: TuningDocument({}, tuple(entries)).to_json()):
            with pytest.raises(ValueError, match="^interval is too long to print: its numerator has 4401"):
                text([entry])

    def test_scores_beyond_the_float_range(self):
        huge = FrequencySet(["1e400", "2", "3e-400"])
        entries = affinitive_tuning(huge, FrequencySet(["3", "1e-400"])).entries
        assert max(e.score.harmonicity.denominator for e in entries) > 2**1024
        assert table_csv(entries) == fraction_table_csv(entries)
        # no nonzero score reads 0.0: the cell is the JSON document's text
        cells = [row.split(",")[3] for row in table_csv(entries).splitlines()[1:]]
        shown = [e["harmonicity_float"] for e in TuningDocument({}, entries).as_dict()["entries"]]
        assert cells == shown


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
    """A JSON document entry, every field formatted from its Fraction, as
    the dict ``json.dumps`` writes."""
    values = (entry.score.affinity, entry.score.harmonicity, entry.score.total)
    data = {
        "interval": format_ratio(entry.interval, always_slash=True),
        "cents": round(cents(entry.interval), 4),
    }
    data.update(zip(("affinity", "harmonicity", "total"),
                    (format_ratio(v, always_slash=True) for v in values)))
    data.update(zip(("affinity_float", "harmonicity_float", "total_float"),
                    (_display_score(v.numerator, v.denominator) for v in values)))
    if entry.note is not None:
        data["note"] = entry.note
    return data


class _StreamedTable(TuningTable):
    """A table whose rows are a new generator at each read: each row's
    terms are a fresh copy, and nothing holds a row once it is written."""

    @property
    def _rows(self):
        return ((n, d, tuple(list(terms))) for n, d, terms in self.__dict__["_rows"])


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

    @settings(max_examples=200, deadline=None)
    @given(_REPEATING_ENTRIES)
    def test_fresh_score_per_entry_equals_the_listed_entries(self, entries):
        # each score object dies once its row is written, so a memo that did
        # not hold it could see its id again on a different score
        fresh = (
            TuningEntry(e.interval, ConsonanceScore(e.score.affinity, e.score.harmonicity))
            for e in entries
        )
        assert table_csv(fresh) == table_csv(entries) == fraction_table_csv(entries)

    @pytest.mark.parametrize("root", [None, F(262)])
    def test_fresh_terms_per_row_write_what_the_table_writes(self, root):
        # every row's terms are a new copy that dies once the row is
        # written, so a memo keyed by the object's id would see it again on
        # a different score
        table = harmonic_tuning(C4, C4 | harmonic_set(393, 6), 0, F(1, 4), 4, 32)
        doc = TuningDocument.from_table(table, "F", "G", annotate_root=root)
        streamed = TuningDocument.from_table(
            _StreamedTable._of_rows(table._rows, table.generator), "F", "G", annotate_root=root
        )
        for write in (table_csv, TuningDocument.to_json,
                      lambda d: _render_text(d, "interval"), lambda d: _render_text(d, "consonance")):
            assert write(streamed) == write(doc)

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


# note texts JSON must escape, or must not: quotes, backslashes, control
# characters, non-ASCII text and the empty string
_NOTES = st.none() | st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t ", "é ♯ 音", ""]) | st.text(max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
_METADATA = st.fixed_dictionaries({}, optional={
    "tool": st.text(max_size=8),
    "generator": st.text(max_size=8),
    "context": st.text(max_size=8),
    "complement": st.text(max_size=8),
    "parameters": st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=4),
})
# scores whose float reads 0, shown as scientific text
_TINY = st.builds(lambda n, k: F(n, 10**k), st.integers(1, 99), st.integers(330, 400))
_NOTED_ENTRIES = st.lists(
    st.builds(
        lambda t, a, h, note: TuningEntry(t, ConsonanceScore(a, h), note),
        st.builds(F, _HUGE, _HUGE),
        _UNIT | _TINY,
        _UNIT | _TINY,
        _NOTES,
    ),
    max_size=12,
)


class TestJsonWriter:
    """``to_json`` writes the bytes ``json.dumps`` writes for the document's
    dict, without building it."""

    @settings(max_examples=300, deadline=None)
    @given(_METADATA, _NOTED_ENTRIES | _REPEATING_ENTRIES)
    def test_bytes_equal_json_dumps(self, metadata, entries):
        entries = sorted({e.interval: e for e in entries}.values(), key=lambda e: e.interval)
        doc = TuningDocument(metadata, tuple(entries))
        reference = {"metadata": metadata, "entries": [reference_entry_dict(e) for e in entries]}
        assert doc.to_json() == json.dumps(reference, indent=2, ensure_ascii=False) + "\n"

    def test_empty_metadata_and_entries(self):
        assert TuningDocument({}, ()).to_json() == '{\n  "metadata": {},\n  "entries": []\n}\n'

    @pytest.mark.parametrize("label, interval, affinity, harmonicity", [
        ("interval", F(10**4300), F(1), F(1)),
        ("affinity", F(3, 2), F(1, 10**4300), F(1)),
        ("harmonicity", F(3, 2), F(1), F(1, 10**4300 + 1)),
        ("total", F(3, 2), F(1, 10**2200 + 1), F(1, 10**2200 + 3)),
    ])
    def test_term_too_long_to_print_is_refused_as_before(self, label, interval, affinity, harmonicity):
        score = ConsonanceScore(affinity, harmonicity)
        value = {"interval": interval, "affinity": affinity, "harmonicity": harmonicity,
                 "total": score.total}[label]
        with pytest.raises(ValueError) as refusal:
            format_ratio(value, True, label)
        metadata = {"generator": "g", "context": "1", "complement": "1"}
        doc = TuningDocument(metadata, (TuningEntry(interval, score),))
        writers = [doc.to_json, lambda: _render_text(doc, "interval")]
        if label == "interval":  # CSV score cells are floats, never exact texts
            writers.append(doc.to_csv)
        for write in writers:
            with pytest.raises(ValueError) as written:
                write()
            assert str(written.value) == str(refusal.value)

    def test_refused_document_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        code = main(["affinitive", "1,1e4299", "1e-1", "-o", str(out)])
        assert (code, capsys.readouterr().out, out.exists()) == (3, "", False)


# values JSON writes but does not read back as they were, nested in plain ones:
# tuples (read as lists), keys that are not strings, non-finite floats, and
# values JSON cannot write
_NEAR_JSON_VALUES = st.recursive(
    _JSON_VALUES | st.sampled_from([math.nan, math.inf, -math.inf, F(1, 2)]),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6) | st.integers(0, 3) | st.none(), inner, max_size=3),
    max_leaves=12,
)
# metadata of any JSON shape, a field a reader uses often of the wrong type,
# and nested values that would not read back
_ANY_METADATA = _METADATA | _JSON_VALUES | st.dictionaries(
    st.sampled_from(["tool", "generator", "context", "complement", "parameters"]) | st.text(max_size=6),
    _JSON_VALUES,
    max_size=5,
) | st.dictionaries(st.sampled_from(["tool", "parameters", "x"]) | st.integers(0, 3), _NEAR_JSON_VALUES, max_size=3)


class TestEveryDocumentReadsBack:
    """The constructor, ``from_table`` and ``from_json`` share one metadata
    check, so a document built any way reads back through ``from_json``."""

    @settings(max_examples=300, deadline=None)
    @given(_ANY_METADATA, _NOTED_ENTRIES)
    def test_accepted_documents_read_back(self, metadata, entries):
        entries = tuple(sorted({e.interval: e for e in entries}.values(), key=lambda e: e.interval))
        try:
            doc = TuningDocument(metadata, entries)
        except ValueError as refusal:
            assert str(refusal).startswith("invalid tuning document: metadata ")
            return
        read = TuningDocument.from_json(doc.to_json())
        assert (read.metadata, read.entries) == (metadata, entries)

    @pytest.mark.parametrize("metadata, message", [
        # the constructor used to raise AttributeError: 'NoneType' object has no attribute 'get'
        (None, "metadata must be an object and entries a list"),
        # the constructor used to accept these, and from_json refused what to_json wrote
        ({"generator": 5}, "metadata field 'generator' must be a string, not int"),
        ({"parameters": []}, "metadata field 'parameters' must be an object, not list"),
    ])
    def test_constructor_refuses_what_from_json_refuses(self, metadata, message):
        text = json.dumps({"metadata": metadata, "entries": []})
        for build in (lambda: TuningDocument(metadata, ()), lambda: TuningDocument.from_json(text)):
            with pytest.raises(ValueError, match=f"^invalid tuning document: {message}$"):
                build()

    @pytest.mark.parametrize("metadata, message", [
        # each used to be written as something else, or as NaN, which from_json refuses
        ({"x": (1, 2)}, "metadata field 'x' holds a value of type tuple"),
        ({1: "a"}, "metadata field 1 must be named by a string, not int"),
        ({"parameters": {"p": [1, {2: "a"}]}}, "metadata field 'parameters' holds a key of type int"),
        ({"x": [math.nan]}, "metadata field 'x' holds nan"),
        ({"x": -math.inf}, "metadata field 'x' holds -inf"),
        # to_json used to raise TypeError
        ({"x": {"y": F(1, 2)}}, "metadata field 'x' holds a value of type Fraction"),
    ])
    def test_metadata_that_would_not_read_back_is_refused(self, metadata, message):
        suffix = "" if "named by" in message else ", which does not read back from JSON"
        with pytest.raises(ValueError) as refusal:
            TuningDocument(metadata, ())
        assert str(refusal.value) == f"invalid tuning document: {message}{suffix}"

    def test_from_table_refuses_parameters_that_would_not_read_back(self):
        with pytest.raises(ValueError) as refusal:
            TuningDocument.from_table(TuningTable((), "g"), "F", "G", {"h": F(1, 2)})
        assert str(refusal.value) == (
            "invalid tuning document: metadata field 'parameters' holds a value of type Fraction, "
            "which does not read back from JSON"
        )

    def test_from_table_refuses_what_from_json_refuses(self):
        # both used to be accepted, and from_json refused what to_json wrote
        for table, context, field, kind in ((TuningTable((), 5), "F", "generator", "int"),
                                            (TuningTable((), "g"), None, "context", "NoneType")):
            with pytest.raises(
                ValueError, match=f"^invalid tuning document: metadata field '{field}' must be a string, not {kind}$"
            ):
                TuningDocument.from_table(table, context, "G")


class TestScoreTerms:
    """``_score_terms`` is the one derivation of a score's terms."""

    @settings(max_examples=300, deadline=None)
    @given(st.builds(ConsonanceScore, _UNIT | _TINY | st.fractions(), _UNIT | _TINY | st.fractions()))
    def test_terms_of_affinity_harmonicity_and_total(self, score):
        # a row's terms are in lowest terms
        (an, ad), (hn, hd) = score.affinity.as_integer_ratio(), score.harmonicity.as_integer_ratio()
        assert document._score_terms((an, ad, hn, hd)) == tuple(
            value.as_integer_ratio() for value in (score.affinity, score.harmonicity, score.total)
        )


# scores from a few values, so that many rows share a total: (a, h) and (h, a) always do
_TIED = st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)])
_TIED_ENTRIES = st.lists(st.tuples(st.builds(F, _HUGE, _HUGE), _TIED, _TIED), max_size=30).map(
    lambda rows: [TuningEntry(t, ConsonanceScore(a, h)) for t, a, h in sorted({r[0]: r for r in rows}.values())]
)


class TestConsonanceOrder:
    """The consonance order ranks each distinct total once and keeps equal
    totals in interval order, as a stable sort of the rows by -total does."""

    @settings(max_examples=200, deadline=None)
    @given(_TIED_ENTRIES)
    def test_equals_the_per_row_fraction_sort(self, entries):
        doc = TuningDocument({"generator": "g", "context": "1", "complement": "1"}, tuple(entries))
        lines = _render_text(doc, "interval").splitlines(keepends=True)
        ranked = sorted(zip(lines[2:], entries), key=lambda pair: -pair[1].score.total)
        assert _render_text(doc, "consonance") == "".join(lines[:2] + [line for line, _ in ranked])


def text_rows(text):
    """The interval, cents and exact score texts of each row of a text table."""
    rows = []
    for line in text.splitlines()[2:]:
        ratio, c, a, _, h, _, t, *_ = line.split()
        rows.append((ratio, c, (a, h, t)))
    return rows


class TestOneFormatter:
    """CSV, JSON and text tables agree, row by row, on the interval text,
    the cents and the exact score texts."""

    @settings(max_examples=200, deadline=None)
    @given(_ENTRIES | _REPEATING_ENTRIES)
    def test_formats_agree(self, entries):
        entries = sorted({e.interval: e for e in entries}.values(), key=lambda e: e.interval)
        doc = TuningDocument(
            {"generator": "g", "context": "1", "complement": "1"}, tuple(entries)
        )
        csv_rows = [row.split(",") for row in doc.to_csv().splitlines()[1:]]
        json_rows = doc.as_dict()["entries"]
        text = text_rows(_render_text(doc, "interval"))
        assert len(csv_rows) == len(json_rows) == len(text) == len(entries)
        for csv_row, json_row, (ratio, c, exact) in zip(csv_rows, json_rows, text):
            assert csv_row[0] == json_row["interval"] == ratio
            assert float(csv_row[1]) == json_row["cents"] == float(c)
            assert exact == (json_row["affinity"], json_row["harmonicity"], json_row["total"])


class TestWritersBuildNoEntry:
    """Generated tables are written from their rows: no writer, figure or
    command builds a ``TuningEntry``; reading ``entries`` builds them once."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        init = TuningEntry.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TuningEntry, "__init__", counting)
        return calls

    def test_documents_and_csv(self, built):
        single = FrequencySet([262])
        tables = [
            affinitive_tuning(C4, C4),
            harmonic_tuning(C4, C4, F(1, 3)),
            harmonic_tuning(C4, C4, 0, F(1, 2), 2, 12),
            superset_tuning(single, C4, 4, 0),
            octave_reduce(affinitive_tuning(C4, C4), C4, C4),
        ]
        expr = canonical_set_expression(C4)
        for table in tables:
            table_csv(table)
            for root in (None, F(262)):
                doc = TuningDocument.from_table(table, expr, expr, annotate_root=root)
                doc.to_csv(), _render_text(doc, "interval"), _render_text(doc, "consonance")
                read = TuningDocument.from_json(doc.to_json())
                read.to_json(), read.to_table()
        export_scl(TuningDocument.from_json(reduced_document().to_json()))
        assert built == []

    def test_figures(self, built):
        for figure_id in supported_figures():
            emit_figure_data(figure_id, {"max_den": 12, "steps": 20})
        assert built == []

    def test_commands(self, built, tmp_path, capsys):
        first, reduced = str(tmp_path / "a.json"), str(tmp_path / "r.json")
        commands = [
            ["affinitive", "C4_6@262", "G4_3@393", "--notes", "-o", first],
            ["reduce-octave", "--in", first, "-o", reduced],
            ["export-scl", "--in", reduced],
            ["superset", "262,393", "524", "--notes", "--format", "text", "--order", "consonance"],
            ["harmonic", "262*N6", "262*N6", "--h", "1/4"],
            ["thomae", "--max-den", "8"],
        ]
        for argv in commands:
            assert main(argv) == 0, capsys.readouterr().err
        assert built == []

    def test_entries_are_built_once_on_first_read(self, built):
        table = affinitive_tuning(C4, C4)
        entries = table.entries
        assert len(built) == len(entries) == 23
        assert table.entries is entries and len(built) == 23
        doc = TuningDocument.from_table(table, "F", "G", annotate_root=F(262))
        annotated = doc.entries
        assert len(built) == 2 * 23
        assert doc.entries is annotated and len(built) == 2 * 23


class TestScoresBuiltOnRead:
    """A generated table and its documents hold integer score terms: no
    ``Fraction`` or ``ConsonanceScore`` is built from the generator call to
    the written bytes; reading ``entries`` builds one score per distinct
    terms value."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = {"Fraction": 0, "ConsonanceScore": 0}
        new, init = F.__new__, ConsonanceScore.__init__

        def counting_new(cls, *args, **kwargs):
            calls["Fraction"] += 1
            return new(cls, *args, **kwargs)

        def counting_init(self, *args, **kwargs):
            calls["ConsonanceScore"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting_new)
        monkeypatch.setattr(ConsonanceScore, "__init__", counting_init)
        return calls

    def test_none_until_entries_are_read(self, built):
        # the union's fundamental is 131, so t*b/a differs from t
        complement = C4 | harmonic_set(393, 6)
        args = (F(0), F(1, 4), F(4), 32)
        built["Fraction"] = 0
        table = harmonic_tuning(C4, complement, *args)
        text = table_csv(table)
        doc = TuningDocument.from_table(table, "F", "G")
        read = TuningDocument.from_json(doc.to_json())
        assert read.to_csv() == text and len(text.splitlines()) > 1000
        assert built == {"Fraction": 0, "ConsonanceScore": 0}
        distinct = len({terms for _, _, terms in table._rows})
        scores = {id(e.score) for e in table.entries}
        assert built["ConsonanceScore"] == len(scores) == distinct < len(table.entries)


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

    @pytest.mark.parametrize("field", ["generator", "context", "complement"])
    @pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
    def test_line_break_in_a_header_field_is_refused(self, field, brk):
        doc = reduced_document()
        doc.metadata[field] = f"1{brk}2"
        with pytest.raises(ValueError, match=f"^metadata field '{field}' holds a line break"):
            export_scl(doc)
        with pytest.raises(ValueError, match="^scale name holds a line break"):
            export_scl(reduced_document(), name=f"a{brk}b")

    def test_generator_read_as_a_comment_is_refused(self):
        doc = reduced_document()
        doc.metadata["generator"] = "!x"
        with pytest.raises(ValueError, match="^metadata field 'generator' starts with '!'"):
            export_scl(doc)
        # a "!" later in the generator, or in the name, leaves the line intact
        doc.metadata["generator"] = "x!"
        title, description = export_scl(doc, name="!c4").splitlines()[:2]
        assert title == "! !c4.scl" and description.startswith("x! tuning; F=262,")

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
