"""Serialisation: JSON tuning documents, CSV tables and curves, Scala scales.

A tuning document is a table's rows (with note names, on request) plus the
metadata needed to regenerate and rescore them; it is the interchange
format between subcommands. Exact rational strings are authoritative; cents
and float columns are derived on export, so import -> export is
byte-identical. One per-call pass, ``_formatted``, turns a table's rows
(``tuning.TuningTable``: reduced intervals n/d and their scores) into the
rows of every table writer: the CSV of ``table_csv``, the JSON of
``TuningDocument`` and the text table the CLI prints. Each writer hands it
a row function that takes the interval's terms, its cents, the score's
cells and the note name; a ``table_csv`` row is one fill of the template
"{n}/{d},{cents:.4f},{cells}". No writer builds a ``TuningEntry``; entries
handed to a writer are read as rows. It formats each score object once a
call, keyed by its identity: a generated table shares one
``ConsonanceScore`` per distinct score, and ``TuningDocument.from_json``
builds one per distinct score text and reads each interval as integers in
lowest terms through the one ratio reader, ``core._ratio_terms``.
Every cell is formatted from numerators and denominators, with no Fraction
arithmetic; a score's terms, its total (a + h) / 2 included, come from one
function, ``_score_terms``, and its floats are shown by the one display
rule, ``core._display_score``. The text table's consonance order builds one
Fraction per distinct total, to rank the totals. There is one JSON writer,
``to_json``: its bytes are those of ``json.dumps(..., indent=2,
ensure_ascii=False)``, but only the metadata goes through ``json.dumps``,
and each entry is filled into one template, with no dict per entry
(``as_dict`` reads that text back).
The other CSVs the package writes go through ``csv_text``, which joins the
cells of each row with "," (no cell the package writes needs quoting);
``table_csv`` writes the same bytes from its template. Each writer still builds
its whole output as one string, and ``from_json`` reads a whole document
into memory.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, TypeVar

from . import __version__
from .consonance import ConsonanceScore
from .core import _cents_of, _display_score, _ratio_terms, _ratio_text, _scientific, cents, parse_ratio
from .notes import _note_in_span
from .tuning import TuningEntry, TuningTable, _check_order, _entry_rows

if TYPE_CHECKING:  # the roughness module loads numpy; only its type is needed
    from .dissonance import CurvePoint

__all__ = ["TuningDocument", "export_scl"]

_Row = TypeVar("_Row")

TOOL_NAME = "toneset"

# Types of the metadata fields a document's readers use; each may be absent.
_METADATA_FIELDS = {
    "generator": (str, "a string"),
    "context": (str, "a string"),
    "complement": (str, "a string"),
    "parameters": (dict, "an object"),
}


def csv_text(header: list[str], rows: Iterable[Iterable[str]]) -> str:
    """A CSV block: header, rows, bare "\\n" line endings.

    Cells are joined with "," as they are: every cell the package writes is
    a number, an "n/d" text, a ``_scientific`` text or a header, and none
    needs quoting.
    """
    return "\n".join(map(",".join, chain([header], rows))) + "\n"


_TABLE_HEADER = "interval_ratio,cents,affinity,harmonicity,total"

# A table_csv row: interval n/d, its cents and the joined score cells.
_table_row = "{}/{},{:.4f},{}".format


def table_csv(source: TuningTable | TuningDocument | Iterable[TuningEntry]) -> str:
    """A table's entries as CSV: exact interval, cents and the three scores,
    each row one fill of a template, as ``csv_text`` would join its cells."""
    return "\n".join(chain([_TABLE_HEADER], _formatted(source, _joined_cells, _table_row))) + "\n"


def _formatted(
    source: TuningTable | TuningDocument | Iterable[TuningEntry],
    cells: Callable[[ConsonanceScore], Any],
    row: Callable[[int, int, float, Any, Optional[str]], _Row],
) -> Iterator[_Row]:
    """The one pass behind every table writer (CSV, JSON, text): for each
    row, ``row(n, d, cents, cells(score), note)`` with its interval n/d in
    lowest terms and its note name (None but in an annotated document).

    The cells are computed once per score object in this call: generated
    tables share one object per distinct score. The rows hold every score
    while the call lives, so no id is reused, and the memo goes with the
    call. A ``row`` that prints an interval term too long for ``int`` text
    gets ``format_ratio``'s refusal, which names the interval.
    """
    if isinstance(source, TuningDocument):
        rows, notes = source._table._rows, source._notes
    else:
        rows, notes = (source._rows if isinstance(source, TuningTable) else _entry_rows(source)), None
    memo: dict[int, Any] = {}
    for (n, d, score), note in zip(rows, notes or repeat(None)):
        found = memo.get(id(score))
        if found is None:
            found = memo[id(score)] = cells(score)
        try:
            line = row(n, d, _cents_of(n, d), found, note)
        except ValueError:
            _ratio_text(n, d, True, "interval")  # raises for a term too long to print
            raise
        yield line


def _joined_cells(score: ConsonanceScore) -> str:
    """The three score cells of a CSV row, joined the way ``csv_text``
    joins cells."""
    return ",".join(_float_cells(score))


def _float_cells(score: ConsonanceScore) -> tuple[str, str, str]:
    """The affinity, harmonicity and total cells of a CSV row, formatted from
    their ``_score_terms``: an int divided by an int is correctly rounded, so
    each float equals ``float()`` of its Fraction."""
    (an, ad), (hn, hd), (tn, td) = _score_terms(score)
    return _float_cell(an, ad), _float_cell(hn, hd), _float_cell(tn, td)


def _float_cell(n: int, d: int) -> str:
    """``repr`` of the float n/d, or its ``_scientific`` text where that
    float reads 0 for a nonzero value."""
    x = n / d
    return repr(x) if x or not n else _scientific(Fraction(n, d))


def curve_csv(points: Iterable[CurvePoint]) -> str:
    """A dissonance curve as CSV: t, its cents and the roughness."""
    return csv_text(
        ["t", "cents", "dissonance"],
        ([repr(p.t), f"{cents(p.t):.4f}", repr(p.dissonance)] for p in points),
    )


_SCORE_LABELS = ("affinity", "harmonicity", "total")


def _score_terms(score: ConsonanceScore) -> tuple[tuple[int, int], ...]:
    """A score's affinity, harmonicity and total (a + h) / 2, each as
    (numerator, denominator) in lowest terms: the total takes one gcd and no
    Fraction arithmetic. The one place a total's terms are derived."""
    a, h = score.affinity.as_integer_ratio(), score.harmonicity.as_integer_ratio()
    (an, ad), (hn, hd) = a, h
    tn, td = an * hd + hn * ad, 2 * ad * hd
    g = math.gcd(tn, td)
    return a, h, (tn // g, td // g)


def _score_fields(score: ConsonanceScore) -> tuple[tuple[int, int], tuple, tuple]:
    """A score's total terms, the exact "p/q" texts of affinity, harmonicity
    and total, and their ``_display_score`` values (JSON and text alike)."""
    terms = _score_terms(score)
    return (
        terms[2],
        tuple(_ratio_text(n, d, True, label) for (n, d), label in zip(terms, _SCORE_LABELS)),
        tuple(_display_score(n, d) for n, d in terms),
    )


def _score_text(shown: float | str) -> str:
    """A ``_display_score`` value as text."""
    if isinstance(shown, str):
        return shown
    # a rounded score prints 3 decimals, an unrounded one 4 significant digits
    return f"{shown:.3f}" if shown == round(shown, 3) else f"{shown:.3e}"


def _json_scores(score: ConsonanceScore) -> str:
    """The score fields of a JSON document entry, as ``json.dumps`` with
    ``indent=2`` writes them inside an entry."""
    _, texts, shown = _score_fields(score)
    # a shown score is a float, or the _scientific text of one that reads 0
    return _JSON_SCORES.format(
        *texts, *(encode_basestring(v) if isinstance(v, str) else repr(v) for v in shown)
    )


def _json_entry(n: int, d: int, c: float, scores: str, note: Optional[str]) -> str:
    """A JSON document entry, as ``json.dumps`` with ``indent=2`` writes it."""
    return (
        f'    {{\n      "interval": "{n}/{d}",\n      "cents": {round(c, 4)!r},\n{scores}'
        + ("" if note is None else f',\n      "note": {encode_basestring(note)}')
        + "\n    }"
    )


_JSON_SCORES = (
    '      "affinity": "{}",\n      "harmonicity": "{}",\n      "total": "{}",\n'
    '      "affinity_float": {},\n      "harmonicity_float": {},\n      "total_float": {}'
)


def _text_scores(score: ConsonanceScore) -> tuple[tuple[int, int], str]:
    """A score's total and the score columns of its text table row."""
    total, texts, shown = _score_fields(score)
    return total, "".join(f"  {text:>8} ({_score_text(v)})" for text, v in zip(texts, shown))


def _text_row(n: int, d: int, c: float, scores: tuple[tuple[int, int], str], note: Optional[str]):
    """A text table row and its score's total, the consonance order's key."""
    total, cells = scores
    return total, f"{f'{n}/{d}':>10}  {c:>10.4f}{cells}  {note or ''}"


def _render_text(doc: TuningDocument, order: str) -> str:
    """A document as a text table, in interval or consonance order."""
    rows: Iterable = _formatted(doc, _text_scores, _text_row)
    if order == "consonance":
        # each distinct total is ranked once, its terms in lowest terms; the
        # rows ascend by interval and the sort is stable, so equal totals
        # keep that order
        rows = list(rows)
        totals = sorted({total for total, _ in rows}, key=lambda total: Fraction(*total), reverse=True)
        rank = {total: i for i, total in enumerate(totals)}
        rows.sort(key=lambda row: rank[row[0]])
    head = (
        f"# {doc.metadata['generator']} tuning  F={doc.metadata['context']}  F'={doc.metadata['complement']}\n"
        f"{'interval':>10}  {'cents':>10}  {'affinity':>16}  {'harmonicity':>18}  {'total':>16}  note"
    )
    return "\n".join(chain([head], (line for _, line in rows))) + "\n"


def _refuse_constant(name: str) -> None:
    """Refuse the ``NaN``, ``Infinity`` and ``-Infinity`` that Python's JSON
    reader accepts and strict readers do not."""
    raise ValueError(f"invalid tuning document JSON: {name} is not a JSON value")


def _ratio_field(raw: dict, index: int, field: str) -> Fraction:
    return parse_ratio(_text_field(raw, index, field))


def _text_field(raw: dict, index: int, field: str) -> str:
    if field not in raw:
        raise ValueError(f"invalid tuning document: entry {index} lacks {field!r}")
    value = raw[field]
    if not isinstance(value, str):
        raise ValueError(
            f"invalid tuning document: entry {index} field {field!r} must be a "
            f"'p/q' string, not {type(value).__name__}"
        )
    return value


class TuningDocument:
    """A tuning table plus the metadata needed to regenerate and rescore it.

    A document holds a table's rows, which the writers read, and the note
    names of an annotated one (one per row, None outside the naming span).
    ``entries`` is a view of them, built on first read: for a document
    without note names, the table's own entries. ``from_table`` takes the
    rows of a table; the constructor and ``from_json`` refuse entries that
    do not strictly ascend by interval or are not positive, so every
    document reads back.
    """

    def __init__(self, metadata: dict, entries: tuple[TuningEntry, ...]):
        # the table refuses entries out of order or not positive
        table = TuningTable(entries, metadata.get("generator", "unknown"))
        self._hold(metadata, table, [e.note for e in entries], entries)

    def _hold(self, metadata: dict, table: TuningTable, notes: Iterable, entries=None) -> None:
        notes = tuple(notes)
        self.metadata, self._table, self._entries = metadata, table, entries
        self._notes = notes if any(n is not None for n in notes) else None

    @property
    def entries(self) -> tuple[TuningEntry, ...]:
        if self._entries is None:
            table, notes = self._table, self._notes
            self._entries = table.entries if notes is None else tuple(
                TuningEntry(t, score, note)
                for t, (_, _, score), note in zip(table.intervals, table._rows, notes)
            )
        return self._entries

    @classmethod
    def from_table(
        cls,
        table: TuningTable,
        context_expr: str,
        complement_expr: str,
        parameters: Optional[dict] = None,
        annotate_root: Optional[Fraction] = None,
    ) -> "TuningDocument":
        notes = ()
        if annotate_root is not None:
            # an entry outside the naming span is left unannotated
            rn, rd = annotate_root.numerator, annotate_root.denominator
            notes = (_note_in_span(rn * n, rd * d) for n, d, _ in table._rows)
            notes = [n and n.render() for n in notes]
        metadata = {
            "tool": TOOL_NAME,
            "version": __version__,
            "generator": table.generator,
            "context": context_expr,
            "complement": complement_expr,
            "parameters": dict(parameters or {}),
        }
        doc = cls.__new__(cls)
        doc._hold(metadata, table, notes)
        return doc

    def to_table(self) -> TuningTable:
        """The document's rows as a table under its metadata's generator;
        the note names stay with the document."""
        return TuningTable._of_rows(self._table._rows, self.metadata.get("generator", "unknown"))

    def as_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The bytes of ``json.dumps(..., indent=2, ensure_ascii=False) + "\\n"``
        for the document: ``json.dumps`` writes the metadata, and each entry
        fills one template."""
        head = json.dumps({"metadata": self.metadata, "entries": []}, indent=2, ensure_ascii=False)
        entries = ",\n".join(_formatted(self, _json_scores, _json_entry))
        # the head ends '"entries": []\n}'
        return f"{head[:-4]}[\n{entries}\n  ]\n}}\n" if entries else head + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TuningDocument":
        try:
            data = json.loads(text, parse_constant=_refuse_constant)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid tuning document JSON: {exc}") from None
        except RecursionError:
            raise ValueError("invalid tuning document JSON: nested too deeply") from None
        if not isinstance(data, dict) or "metadata" not in data or "entries" not in data:
            raise ValueError("invalid tuning document: missing metadata or entries")
        if not isinstance(data["metadata"], dict) or not isinstance(data["entries"], list):
            raise ValueError(
                "invalid tuning document: metadata must be an object and entries a list"
            )
        for field, (kind, name) in _METADATA_FIELDS.items():
            value = data["metadata"].get(field, kind())
            if not isinstance(value, kind):
                raise ValueError(
                    f"invalid tuning document: metadata field {field!r} must be "
                    f"{name}, not {type(value).__name__}"
                )
        # one score per distinct (affinity, harmonicity, total) text triple,
        # parsed and checked once, so the writers' memo serves read documents
        scores: dict[tuple, ConsonanceScore] = {}
        rows, notes = [], []
        for index, raw in enumerate(data["entries"]):
            if not isinstance(raw, dict):
                raise ValueError(f"invalid tuning document: entry {index} is not an object")
            note = raw.get("note")
            if not isinstance(note, (str, type(None))):
                raise ValueError(
                    f"invalid tuning document: entry {index} field 'note' must be a string, "
                    f"not {type(note).__name__}"
                )
            n, d = _ratio_terms(_text_field(raw, index, "interval"))
            if n <= 0:
                raise ValueError(f"invalid tuning document: entry {index} field 'interval' must be positive")
            texts = tuple(raw.get(field) for field in _SCORE_LABELS)
            score = scores.get(texts) if all(type(t) is str for t in texts) else None
            if score is None:
                a, h = _ratio_field(raw, index, "affinity"), _ratio_field(raw, index, "harmonicity")
                score = ConsonanceScore(a, h)
                # both totals in lowest terms: equal terms are equal values
                total = "total" in raw and _ratio_field(raw, index, "total").as_integer_ratio()
                if total and total != _score_terms(score)[2]:
                    raise ValueError(
                        f"inconsistent entry: total {raw['total']} is not the mean of "
                        f"affinity and harmonicity at interval {raw['interval']}"
                    )
                scores[texts] = score
            rows.append((n, d, score))
            notes.append(note)
        _check_order(rows)
        doc = cls.__new__(cls)
        generator = data["metadata"].get("generator", "unknown")
        doc._hold(data["metadata"], TuningTable._of_rows(tuple(rows), generator), notes)
        return doc

    def to_csv(self) -> str:
        return table_csv(self)


def export_scl(
    doc: TuningDocument, name: Optional[str] = None, cents_lines: bool = False
) -> str:
    """Render a document as a Scala .scl scale file.

    Entries must already sit inside one octave. Pitches are written as exact
    "p/q" lines (or cents with ``cents_lines``), excluding 1/1 and ending on
    the octave 2/1. A line break in the name or in the generator, context
    or complement would split a header line, and is refused; so is a
    generator starting with "!", which would turn the description line
    into a comment.
    """
    headers = [("scale name", name)] + [
        (f"metadata field {field!r}", doc.metadata.get(field))
        for field in ("generator", "context", "complement")
    ]
    for what, text in headers:
        if isinstance(text, str) and ("\n" in text or "\r" in text):
            raise ValueError(f"{what} holds a line break, which would split a Scala header line")
    generator = doc.metadata.get("generator", "tuning")
    if isinstance(generator, str) and generator.startswith("!"):
        raise ValueError(
            "metadata field 'generator' starts with '!', which would make the Scala "
            "description line a comment"
        )
    rows = doc._table._rows
    if any(n < d or n > 2 * d for n, d, _ in rows):
        raise ValueError(
            "document spans more than one octave; apply reduce-octave first"
        )
    pitches = [(n, d) for n, d, _ in rows if n != d]
    if not pitches:
        raise ValueError("nothing to export: no entries besides unison 1/1")
    if pitches[-1] != (2, 1):
        pitches.append((2, 1))
    title = name or generator
    description = (
        f"{generator} tuning; "
        f"F={doc.metadata.get('context', '?')}; F'={doc.metadata.get('complement', '?')}"
    )
    lines = [f"! {title}.scl", description, str(len(pitches))]
    for n, d in pitches:
        lines.append(f"{_cents_of(n, d):.4f}" if cents_lines else _ratio_text(n, d, True, "interval"))
    return "\n".join(lines) + "\n"
