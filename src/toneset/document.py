"""Serialisation: JSON tuning documents, CSV tables and curves, Scala scales.

A tuning document is a table's rows (with note names, on request) plus the
metadata needed to regenerate and rescore them; it is the interchange
format between subcommands. Exact rational strings are authoritative; cents
and float columns are derived on export, so import -> export is
byte-identical. Every table writer (``table_csv``, ``TuningDocument.to_json``
and the text table the CLI prints) is one pass, ``_formatted``, over
integer rows and optional note names, with its own cells and row function
(README, "Tables are integer rows, and a row is its interval"). The other
CSVs the package writes go through ``csv_text``. Each writer still builds
its whole output as one string, and ``from_json`` reads a whole document
into memory.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, TypeVar

from . import __version__
from .core import _cents_of, _display_score, _ratio_terms, _ratio_text, _scientific, cents
from .notes import _note_text
from .tuning import TuningEntry, TuningTable, _Terms, _check_order, _entry_rows

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
    each row one fill of a template, as ``csv_text`` would join its cells.
    Loose entries are written in the order given."""
    if isinstance(source, TuningDocument):
        source = source._table
    rows = source._rows if isinstance(source, TuningTable) else _entry_rows(source)
    return "\n".join(chain([_TABLE_HEADER], _formatted(rows, None, _joined_cells, _table_row))) + "\n"


def _formatted(
    rows: Iterable[tuple[int, int, _Terms]],
    notes: Optional[Iterable[Optional[str]]],
    cells: Callable[[_Terms], Any],
    row: Callable[[int, int, float, Any, Optional[str]], _Row],
) -> Iterator[_Row]:
    """The one pass behind every table writer (CSV, JSON, text): for each
    row (n, d, terms) and its note name (None without ``notes``),
    ``row(n, d, cents, cells(terms), note)``.

    The cells are computed once per distinct terms value in this call. A
    ``row`` that prints an interval term too long for ``int`` text gets
    ``format_ratio``'s refusal, which names the interval.
    """
    memo: dict[_Terms, Any] = {}
    for (n, d, terms), note in zip(rows, notes or repeat(None)):
        found = memo.get(terms)
        if found is None:
            found = memo[terms] = cells(terms)
        try:
            line = row(n, d, _cents_of(n, d), found, note)
        except ValueError:
            _ratio_text(n, d, True, "interval")  # raises for a term too long to print
            raise
        yield line


def _joined_cells(terms: _Terms) -> str:
    """The three score cells of a CSV row, joined the way ``csv_text``
    joins cells."""
    return ",".join(_float_cells(terms))


def _float_cells(terms: _Terms) -> tuple[str, str, str]:
    """The affinity, harmonicity and total (an*hd + hn*ad) / (2*ad*hd)
    cells of a CSV row: an int divided by an int is correctly rounded, so
    each float equals ``float()`` of its Fraction."""
    an, ad, hn, hd = terms
    return _float_cell(an, ad), _float_cell(hn, hd), _float_cell(an * hd + hn * ad, 2 * ad * hd)


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


def _score_terms(terms: _Terms) -> tuple[tuple[int, int], ...]:
    """The affinity, harmonicity and total (a + h) / 2 of a row's score
    terms, each as (numerator, denominator) in lowest terms: the total by
    one gcd and no Fraction."""
    an, ad, hn, hd = terms
    tn, td = an * hd + hn * ad, 2 * ad * hd
    g = math.gcd(tn, td)
    return (an, ad), (hn, hd), (tn // g, td // g)


def _score_fields(terms: _Terms) -> tuple[tuple[int, int], tuple, tuple]:
    """A score's total in lowest terms, the exact "p/q" texts of affinity,
    harmonicity and total, and their ``_display_score`` values (JSON, text
    and the ``consonance`` command alike), from a row's score terms: the one
    pass per distinct score behind every exact score field."""
    (an, ad), (hn, hd), (tn, td) = _score_terms(terms)
    try:
        texts = f"{an}/{ad}", f"{hn}/{hd}", f"{tn}/{td}"
    except ValueError:
        for (n, d), label in zip(((an, ad), (hn, hd), (tn, td)), _SCORE_LABELS):
            _ratio_text(n, d, True, label)  # raises for the first term too long to print
        raise
    return (tn, td), texts, (_display_score(an, ad), _display_score(hn, hd), _display_score(tn, td))


def _score_text(shown: float | str) -> str:
    """A ``_display_score`` value as text."""
    if isinstance(shown, str):
        return shown
    # a rounded score prints 3 decimals, an unrounded one 4 significant digits
    return f"{shown:.3f}" if shown == round(shown, 3) else f"{shown:.3e}"


def _json_scores(terms: _Terms) -> str:
    """The score fields of a JSON document entry, as ``json.dumps`` with
    ``indent=2`` writes them inside an entry."""
    _, texts, (a, h, t) = _score_fields(terms)
    # a shown score is a float, or the _scientific text of one that reads 0
    return _JSON_SCORES.format(
        *texts,
        encode_basestring(a) if type(a) is str else repr(a),
        encode_basestring(h) if type(h) is str else repr(h),
        encode_basestring(t) if type(t) is str else repr(t),
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


def _text_scores(terms: _Terms) -> tuple[tuple[int, int], str]:
    """A score's total and the score columns of its text table row."""
    total, (a, h, t), (shown_a, shown_h, shown_t) = _score_fields(terms)
    return total, (
        f"  {a:>8} ({_score_text(shown_a)})  {h:>8} ({_score_text(shown_h)})  {t:>8} ({_score_text(shown_t)})"
    )


def _text_row(n: int, d: int, c: float, scores: tuple[tuple[int, int], str], note: Optional[str]):
    """A text table row and its score's total, the consonance order's key."""
    total, cells = scores
    return total, f"{f'{n}/{d}':>10}  {c:>10.4f}{cells}  {note or ''}"


def _render_text(doc: TuningDocument, order: str) -> str:
    """A document as a text table, in interval or consonance order."""
    rows: Iterable = _formatted(doc._table._rows, doc._notes, _text_scores, _text_row)
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


def _note_field(note: Any, index: int) -> Optional[str]:
    """An entry's note name, which must be a string or None."""
    if isinstance(note, (str, type(None))):
        return note
    raise ValueError(f"invalid tuning document: entry {index} field 'note' must be a string, not {type(note).__name__}")


def _json_fault(value: Any) -> Optional[str]:
    """What in ``value`` would not read back from JSON as an equal value,
    or None: only dicts with string keys, lists, strings, ints, finite
    floats, booleans and None do."""
    if isinstance(value, float):
        return None if math.isfinite(value) else str(value)
    if value is None or isinstance(value, (str, int)):
        return None
    if isinstance(value, dict):
        keys = [key for key in value if not isinstance(key, str)]
        if keys:
            return f"a key of type {type(keys[0]).__name__}"
        value = value.values()
    elif not isinstance(value, list):
        return f"a value of type {type(value).__name__}"
    return next(filter(None, map(_json_fault, value)), None)


def _check_metadata(metadata: Any, entries_listed: bool = True) -> None:
    """Refuse metadata that is not an object (or entries that were not
    listed), a metadata field a reader uses that has the wrong type, or
    one that would not read back from JSON as it is."""
    if not isinstance(metadata, dict) or not entries_listed:
        raise ValueError("invalid tuning document: metadata must be an object and entries a list")
    for field, (kind, name) in _METADATA_FIELDS.items():
        value = metadata.get(field, kind())
        if not isinstance(value, kind):
            raise ValueError(
                f"invalid tuning document: metadata field {field!r} must be {name}, not {type(value).__name__}"
            )
    try:
        for field, value in metadata.items():
            if not isinstance(field, str):
                raise ValueError(
                    f"invalid tuning document: metadata field {field!r} must be named by a string, "
                    f"not {type(field).__name__}"
                )
            fault = _json_fault(value)
            if fault:
                raise ValueError(
                    f"invalid tuning document: metadata field {field!r} holds {fault}, "
                    "which does not read back from JSON"
                )
    except RecursionError:  # nested past the stack, or holding itself
        raise ValueError("invalid tuning document: metadata nested too deeply") from None


class TuningDocument:
    """A tuning table plus the metadata needed to regenerate and rescore it.

    A document holds a table's rows, which the writers read, and the note
    names of an annotated one (one per row, None outside the naming span).
    ``entries`` is a view of them, built on first read: for a document
    without note names, the table's own entries. ``from_table`` takes the
    rows of a table; the constructor and ``from_json`` refuse entries that
    do not strictly ascend by interval or are not positive, and all three
    refuse metadata ``from_json`` could not read back as it is, so every
    document reads back.
    """

    def __init__(self, metadata: dict, entries: tuple[TuningEntry, ...]):
        _check_metadata(metadata)
        # the table refuses entries out of order, not positive or with an inexact score
        table = TuningTable(entries, metadata.get("generator", "unknown"))
        self._hold(metadata, table, [_note_field(e.note, index) for index, e in enumerate(entries)])

    def _hold(self, metadata: dict, table: TuningTable, notes: Iterable) -> None:
        notes = tuple(notes)
        self.metadata, self._table = metadata, table
        self._notes = notes if any(n is not None for n in notes) else None

    @cached_property
    def entries(self) -> tuple[TuningEntry, ...]:
        if self._notes is None:
            return self._table.entries
        return tuple(TuningEntry(e.interval, e.score, note) for e, note in zip(self._table.entries, self._notes))

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
            notes = [_note_text(rn * n, rd * d) for n, d, _ in table._rows]
        metadata = {
            "tool": TOOL_NAME,
            "version": __version__,
            "generator": table.generator,
            "context": context_expr,
            "complement": complement_expr,
            "parameters": dict(parameters or {}),
        }
        _check_metadata(metadata)
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
        entries = ",\n".join(_formatted(self._table._rows, self._notes, _json_scores, _json_entry))
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
        _check_metadata(data["metadata"], isinstance(data["entries"], list))
        # each distinct (affinity, harmonicity, total) text triple is read
        # and checked once
        scores: dict[tuple, _Terms] = {}
        rows, notes = [], []
        for index, raw in enumerate(data["entries"]):
            if not isinstance(raw, dict):
                raise ValueError(f"invalid tuning document: entry {index} is not an object")
            note = _note_field(raw.get("note"), index)
            interval = raw.get("interval")
            n, d = _ratio_terms(interval if type(interval) is str else _text_field(raw, index, "interval"))
            if n <= 0:
                raise ValueError(f"invalid tuning document: entry {index} field 'interval' must be positive")
            texts = a, h, t = raw.get("affinity"), raw.get("harmonicity"), raw.get("total")
            terms = scores.get(texts) if type(a) is str and type(h) is str and type(t) is str else None
            if terms is None:
                a = _ratio_terms(_text_field(raw, index, "affinity"))
                terms = (*a, *_ratio_terms(_text_field(raw, index, "harmonicity")))
                # both totals in lowest terms: equal terms are equal values
                total = "total" in raw and _ratio_terms(_text_field(raw, index, "total"))
                if total and total != _score_terms(terms)[2]:
                    raise ValueError(
                        f"inconsistent entry: total {raw['total']} is not the mean of "
                        f"affinity and harmonicity at interval {raw['interval']}"
                    )
                scores[texts] = terms
            rows.append((n, d, terms))
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
