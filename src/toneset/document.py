"""Serialisation: JSON tuning documents, CSV tables and curves, Scala scales.

A tuning document is a table's rows (with note names, on request) plus the
metadata needed to regenerate and rescore them; it is the interchange
format between subcommands. Exact rational strings are authoritative; cents
and float columns are derived on export, so import -> export is
byte-identical. Every table writer (``table_csv``, ``TuningDocument.to_json``
and the text table the CLI prints) is one pass, ``_formatted``, that
gathers the values of integer rows and optional note names, with its own
cells, and one ``%`` fill of its row template per table, ``_filled``
(README, "Tables are integer rows, and a row is its interval"); curves
and figures fill theirs the same way. A score is shown by one rule,
``_display_score``, and the ``consonance`` report is ``_consonance_lines``.
Each writer still builds its whole output as one string, and ``from_json``
reads a whole document into memory.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from . import __version__
from .core import _cents_of, _ratio_terms, _ratio_text, _scientific, cents
from .notes import _note_text
from .tuning import TuningEntry, TuningTable, _Terms, _check_order, _entry_rows

if TYPE_CHECKING:  # the roughness module loads numpy; only its type is needed
    from .dissonance import CurvePoint

__all__ = ["TuningDocument", "export_scl"]

TOOL_NAME = "toneset"

# Types of the metadata fields a document's readers use; each may be absent.
_METADATA_FIELDS = {
    "generator": (str, "a string"),
    "context": (str, "a string"),
    "complement": (str, "a string"),
    "parameters": (dict, "an object"),
}


_TABLE_HEADER = "interval_ratio,cents,affinity,harmonicity,total"


def table_csv(source: TuningTable | TuningDocument | Iterable[TuningEntry]) -> str:
    """A table's entries as CSV: exact interval, cents and the three scores,
    one fill of a row template per table. Loose entries are written in the
    order given."""
    if isinstance(source, TuningDocument):
        source = source._table
    rows = source._rows if isinstance(source, TuningTable) else _entry_rows(source)
    return f"{_TABLE_HEADER}\n" + _filled("%d/%d,%.4f,%s\n", *_formatted(rows, None, _joined_cells))


def _formatted(
    rows: Iterable[tuple[int, int, _Terms]],
    notes: Optional[Iterable[Any]],
    cells: Callable[[_Terms], Any],
    places: Optional[int] = None,
) -> tuple[list, int]:
    """The one pass behind every table writer (CSV, JSON, text): the values
    n, d, cents (rounded to ``places``, when given), ``cells(terms)`` and,
    with ``notes``, the note of each row (n, d, terms), in one flat list, and
    how many values a row has (README, "Tables are integer rows").

    The cells are computed once per distinct terms value in this call.
    """
    memo: dict[_Terms, Any] = {}
    values: list = []
    for (n, d, terms), note in zip(rows, notes or repeat(None)):
        found = memo.get(terms)
        if found is None:
            found = memo[terms] = cells(terms)
        c = _cents_of(n, d)
        values += n, d, c if places is None else round(c, places), found, note
    if notes is None:
        del values[4::5]
        return values, 4
    return values, 5


def _filled(template: str, values: list, width: int, separator: str = "") -> str:
    """``template`` filled once per row of ``width`` values, joined by
    ``separator``, in one ``%``. An interval term too long for ``int`` text
    gets ``format_ratio``'s refusal, which names the first such interval."""
    try:
        return separator.join([template] * (len(values) // width)) % tuple(values)
    except ValueError:
        for n, d in zip(values[::width], values[1::width]):
            _ratio_text(n, d, True, "interval")  # raises for the first term too long to print
        raise


def _joined_cells(terms: _Terms) -> str:
    """The three score cells of a CSV row, joined by ","."""
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


def _display_score(numerator: int, denominator: int) -> float | str:
    """How a score is shown beside its exact ratio (JSON, text and
    ``consonance``): its float rounded to 3 decimals, unrounded where that
    would show a nonzero score as 0, and its ``_scientific`` text where even
    the float reads 0. An int divided by an int is correctly rounded, so the
    float is ``float()`` of the Fraction."""
    x = numerator / denominator
    if x == 0.0 and numerator:
        return _scientific(Fraction(numerator, denominator))
    if x == 0.0 or abs(x) >= 0.0005:
        return round(x, 3)
    return x


def curve_csv(points: Iterable[CurvePoint]) -> str:
    """A dissonance curve as CSV (t, its cents, the roughness), in one fill
    of a row template; ``cents`` refuses a t that is not positive."""
    values: list = []
    for p in points:
        values += p.t, cents(p.t), p.dissonance
    return "t,cents,dissonance\n" + _filled("%r,%.4f,%r\n", values, 3)


_SCORE_LABELS = ("affinity", "harmonicity", "total")


def _score_terms(terms: _Terms) -> tuple[tuple[int, int], ...]:
    """The affinity, harmonicity and total (a + h) / 2 of a row's score
    terms, each as (numerator, denominator) in lowest terms: the total by
    one gcd and no Fraction."""
    an, ad, hn, hd = terms
    tn, td = an * hd + hn * ad, 2 * ad * hd
    g = math.gcd(tn, td)
    return (an, ad), (hn, hd), (tn // g, td // g)


def _score_fields(terms: _Terms) -> tuple[tuple, tuple]:
    """The exact "p/q" texts of affinity, harmonicity and total, and their
    ``_display_score`` values (JSON, text and the ``consonance`` command
    alike), from a row's score terms: the one pass per distinct score behind
    every exact score field."""
    (an, ad), (hn, hd), (tn, td) = _score_terms(terms)
    try:
        texts = f"{an}/{ad}", f"{hn}/{hd}", f"{tn}/{td}"
    except ValueError:
        for (n, d), label in zip(((an, ad), (hn, hd), (tn, td)), _SCORE_LABELS):
            _ratio_text(n, d, True, label)  # raises for the first term too long to print
        raise
    return texts, (_display_score(an, ad), _display_score(hn, hd), _display_score(tn, td))


def _score_text(shown: float | str) -> str:
    """A ``_display_score`` value as text."""
    if isinstance(shown, str):
        return shown
    # a rounded score prints 3 decimals, an unrounded one 4 significant digits
    return f"{shown:.3f}" if shown == round(shown, 3) else f"{shown:.3e}"


def _consonance_lines(terms: _Terms) -> str:
    """The ``consonance`` report of a row's score terms: each score's exact and shown value."""
    texts, shown = _score_fields(terms)
    return "".join(f"{label:<11} = {text} ({_score_text(v)})\n" for label, text, v in zip(_SCORE_LABELS, texts, shown))


def _json_scores(terms: _Terms) -> str:
    """The score fields of a JSON document entry, as ``json.dumps`` with
    ``indent=2`` writes them inside an entry."""
    texts, (a, h, t) = _score_fields(terms)
    # a shown score is a float, or the _scientific text of one that reads 0
    return _JSON_SCORES.format(
        *texts,
        encode_basestring(a) if type(a) is str else repr(a),
        encode_basestring(h) if type(h) is str else repr(h),
        encode_basestring(t) if type(t) is str else repr(t),
    )


_JSON_SCORES = (
    '      "affinity": "{}",\n      "harmonicity": "{}",\n      "total": "{}",\n'
    '      "affinity_float": {},\n      "harmonicity_float": {},\n      "total_float": {}'
)

# a JSON document entry, as ``json.dumps`` with ``indent=2`` writes it: the
# interval, its cents rounded to 4 places, the score fields and the note field
_JSON_ENTRY = '    {\n      "interval": "%d/%d",\n      "cents": %r,\n%s%s\n    }'


def _text_scores(terms: _Terms) -> str:
    """The score columns of a text table row."""
    (a, h, t), (shown_a, shown_h, shown_t) = _score_fields(terms)
    return f"  {a:>8} ({_score_text(shown_a)})  {h:>8} ({_score_text(shown_h)})  {t:>8} ({_score_text(shown_t)})"


def _render_text(doc: TuningDocument, order: str) -> str:
    """A document as a text table, in interval or consonance order."""
    rows = doc._table._rows
    notes = [note or "" for note in doc._notes] if doc._notes else repeat("")
    if order == "consonance":
        # each distinct total is ranked once, its terms in lowest terms; the
        # rows ascend by interval and the sort is stable, so equal totals
        # keep that order
        pairs = list(zip(rows, notes))
        total = {terms: _score_terms(terms)[2] for terms in {row[2] for row, _ in pairs}}
        ranked = sorted(set(total.values()), key=lambda t: Fraction(*t), reverse=True)
        rank = {t: i for i, t in enumerate(ranked)}
        pairs.sort(key=lambda pair: rank[total[pair[0][2]]])
        rows, notes = [row for row, _ in pairs], [note for _, note in pairs]
    values, _ = _formatted(rows, notes, _text_scores)
    # "n/d" is right-aligned as one text, so the intervals are filled first
    values[::5] = _filled("%d/%d\n", list(chain.from_iterable(zip(values[::5], values[1::5]))), 2).split("\n")[:-1]
    del values[1::5]
    head = (
        f"# {doc.metadata['generator']} tuning  F={doc.metadata['context']}  F'={doc.metadata['complement']}\n"
        f"{'interval':>10}  {'cents':>10}  {'affinity':>16}  {'harmonicity':>18}  {'total':>16}  note"
    )
    return f"{head}\n" + _filled("%10s  %10.4f%s  %s\n", values, 4)


def _refuse_constant(name: str) -> None:
    """Refuse the ``NaN``, ``Infinity`` and ``-Infinity`` that Python's JSON
    reader accepts and strict readers do not."""
    raise ValueError(f"invalid tuning document JSON: {name} is not a JSON value")


def _json_int(text: str) -> int:
    """A JSON integer's value; one with more digits than Python converts
    (``sys.get_int_max_str_digits()``) is refused."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"invalid tuning document JSON: an integer of {len(text.lstrip('-'))} digits, more than "
            f"the limit of {sys.get_int_max_str_digits()}"
        ) from None


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
    or None: only dicts with string keys, lists, strings, ints of at most
    ``sys.get_int_max_str_digits()`` digits, finite floats, booleans and
    None do."""
    if isinstance(value, float):
        return None if math.isfinite(value) else str(value)
    if isinstance(value, int):
        try:
            int.__repr__(value)  # what json.dumps writes
        except ValueError:
            return f"an int of more than {sys.get_int_max_str_digits()} digits"
        return None
    if value is None or isinstance(value, str):
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
        notes = self._notes and ["" if note is None else f',\n      "note": {encode_basestring(note)}' for note in self._notes]
        entries = _filled(_JSON_ENTRY, *_formatted(self._table._rows, notes or repeat(""), _json_scores, 4), ",\n")
        # the head ends '"entries": []\n}'
        return f"{head[:-4]}[\n{entries}\n  ]\n}}\n" if entries else head + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TuningDocument":
        try:
            data = json.loads(text, parse_constant=_refuse_constant, parse_int=_json_int)
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
