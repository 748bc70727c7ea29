"""Serialisation: JSON tuning documents, CSV tables and curves, Scala scales.

A tuning document is a table's ``TuningEntry`` values (with note names, on
request) plus the metadata needed to regenerate and rescore them; it is the
interchange format between subcommands. Exact rational strings are
authoritative; cents and float columns are derived on export, so import ->
export is byte-identical. Score floats are shown by the one display rule,
``core._display_score``. Every CSV the package writes goes through
``csv_text``, with the rows of ``table_csv`` and ``curve_csv``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from . import __version__
from .consonance import ConsonanceScore
from .core import _cents_of, _display_score, cents, format_ratio, parse_ratio
from .notes import note_name
from .tuning import TuningEntry, TuningTable

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


def csv_text(header: list[str], rows: Iterable[list]) -> str:
    """A CSV block: header, rows, bare "\\n" line endings."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def table_csv(entries: Iterable[TuningEntry]) -> str:
    """Tuning entries as CSV: exact interval, cents and the three scores."""
    return csv_text(
        ["interval_ratio", "cents", "affinity", "harmonicity", "total"], _table_rows(entries)
    )


def _table_rows(entries: Iterable[TuningEntry]) -> Iterator[list[str]]:
    """The rows of ``table_csv``. The float cells are formatted once per
    distinct score in this call, and the memo goes with the call."""
    cells: dict[tuple[int, int, int, int], tuple[str, str, str]] = {}
    for e in entries:
        t, score = e.interval, e.score
        n, d = t.numerator, t.denominator
        a, h = score.affinity, score.harmonicity
        key = (a.numerator, a.denominator, h.numerator, h.denominator)
        floats = cells.get(key)
        if floats is None:
            floats = cells[key] = _float_cells(*key)
        yield [format_ratio(t, True, "interval"), f"{_cents_of(n, d):.4f}", *floats]


def _float_cells(an: int, ad: int, hn: int, hd: int) -> tuple[str, str, str]:
    """The affinity, harmonicity and total cells of a CSV row, formatted from
    numerators and denominators alone: an int divided by an int is correctly
    rounded, so each float equals ``float()`` of its Fraction, the total's
    included."""
    return repr(an / ad), repr(hn / hd), repr((an * hd + hn * ad) / (2 * ad * hd))


def curve_csv(points: Iterable[CurvePoint]) -> str:
    """A dissonance curve as CSV: t, its cents and the roughness."""
    return csv_text(
        ["t", "cents", "dissonance"],
        ([repr(p.t), f"{cents(p.t):.4f}", repr(p.dissonance)] for p in points),
    )


_SCORE_LABELS = ("affinity", "harmonicity", "total")


def _score_fields() -> Callable[[ConsonanceScore], tuple[Fraction, tuple, tuple]]:
    """A memo for one formatting call (a JSON document, a text table): maps a
    score to its total, the exact "p/q" texts of affinity, harmonicity and
    total, and their ``_display_score`` values, computing each once per
    distinct score. Build one per call; it must not outlive it."""
    fields: dict[tuple[int, int, int, int], tuple[Fraction, tuple, tuple]] = {}

    def lookup(score: ConsonanceScore) -> tuple[Fraction, tuple, tuple]:
        a, h = score.affinity, score.harmonicity
        key = (a.numerator, a.denominator, h.numerator, h.denominator)
        found = fields.get(key)
        if found is None:
            values = (a, h, score.total)
            found = fields[key] = (
                values[2],
                tuple(format_ratio(v, True, label) for v, label in zip(values, _SCORE_LABELS)),
                tuple(_display_score(v) for v in values),
            )
        return found

    return lookup


def _entry_dict(entry: TuningEntry, fields: Callable) -> dict:
    n, d = entry.interval.numerator, entry.interval.denominator
    _, (affinity, harmonicity, total), shown = fields(entry.score)
    data = {
        "interval": format_ratio(entry.interval, True, "interval"),
        "cents": round(_cents_of(n, d), 4),
        "affinity": affinity,
        "harmonicity": harmonicity,
        "total": total,
        "affinity_float": shown[0],
        "harmonicity_float": shown[1],
        "total_float": shown[2],
    }
    if entry.note is not None:
        data["note"] = entry.note
    return data


def _ratio_field(raw: dict, index: int, field: str) -> Fraction:
    if field not in raw:
        raise ValueError(f"invalid tuning document: entry {index} lacks {field!r}")
    value = raw[field]
    if not isinstance(value, str):
        raise ValueError(
            f"invalid tuning document: entry {index} field {field!r} must be a "
            f"'p/q' string, not {type(value).__name__}"
        )
    return parse_ratio(value)


def _note(frequency: Fraction) -> Optional[str]:
    try:
        return note_name(frequency).render()
    except ValueError:
        return None  # outside the naming span; leave unannotated


class TuningDocument:
    """A tuning table plus the metadata needed to regenerate and rescore it.

    ``entries`` are in a ``TuningTable``'s order: ``from_table`` takes them
    from a table, and ``from_json`` checks them by building one.
    """

    def __init__(self, metadata: dict, entries: tuple[TuningEntry, ...]):
        self.metadata = metadata
        self.entries = entries

    @classmethod
    def from_table(
        cls,
        table: TuningTable,
        context_expr: str,
        complement_expr: str,
        parameters: Optional[dict] = None,
        annotate_root: Optional[Fraction] = None,
    ) -> "TuningDocument":
        entries = table.entries
        if annotate_root is not None:
            entries = tuple(replace(e, note=_note(annotate_root * e.interval)) for e in entries)
        metadata = {
            "tool": TOOL_NAME,
            "version": __version__,
            "generator": table.generator,
            "context": context_expr,
            "complement": complement_expr,
            "parameters": dict(parameters or {}),
        }
        return cls(metadata, entries)

    def to_table(self) -> TuningTable:
        return TuningTable(self.entries, self.metadata.get("generator", "unknown"))

    def as_dict(self) -> dict:
        fields = _score_fields()
        return {
            "metadata": self.metadata,
            "entries": [_entry_dict(e, fields) for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TuningDocument":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid tuning document JSON: {exc}") from None
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
        entries = []
        for index, raw in enumerate(data["entries"]):
            if not isinstance(raw, dict):
                raise ValueError(f"invalid tuning document: entry {index} is not an object")
            entry = TuningEntry(
                _ratio_field(raw, index, "interval"),
                ConsonanceScore(
                    _ratio_field(raw, index, "affinity"),
                    _ratio_field(raw, index, "harmonicity"),
                ),
                raw.get("note"),
            )
            if "total" in raw and _ratio_field(raw, index, "total") != entry.score.total:
                raise ValueError(
                    f"inconsistent entry: total {raw['total']} is not the mean of "
                    f"affinity and harmonicity at interval {raw['interval']}"
                )
            entries.append(entry)
        doc = cls(data["metadata"], tuple(entries))
        doc.to_table()  # rejects entries out of interval order
        return doc

    def to_csv(self) -> str:
        return table_csv(self.entries)


def export_scl(
    doc: TuningDocument, name: Optional[str] = None, cents_lines: bool = False
) -> str:
    """Render a document as a Scala .scl scale file.

    Entries must already sit inside one octave. Pitches are written as exact
    "p/q" lines (or cents with ``cents_lines``), excluding 1/1 and ending on
    the octave 2/1.
    """
    intervals = [e.interval for e in doc.entries]
    if any(t < 1 or t > 2 for t in intervals):
        raise ValueError(
            "document spans more than one octave; apply reduce-octave first"
        )
    pitches = [t for t in intervals if t != 1]
    if not pitches:
        raise ValueError("nothing to export: no entries besides unison 1/1")
    if pitches[-1] != 2:
        pitches.append(Fraction(2))
    title = name or doc.metadata.get("generator", "tuning")
    description = (
        f"{doc.metadata.get('generator', 'tuning')} tuning; "
        f"F={doc.metadata.get('context', '?')}; F'={doc.metadata.get('complement', '?')}"
    )
    lines = [f"! {title}.scl", description, str(len(pitches))]
    for t in pitches:
        if cents_lines:
            lines.append(f"{cents(t):.4f}")
        else:
            lines.append(format_ratio(t, True, "interval"))
    return "\n".join(lines) + "\n"
