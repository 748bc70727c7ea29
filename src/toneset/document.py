"""Serialisation of tuning tables: JSON documents, CSV, Scala scale files.

The JSON document is the interchange format between subcommands. Exact
rational strings are authoritative; cents and float columns are derived on
export, so import -> export is byte-identical. Score floats are shown to 3
decimals except when rounding would erase them entirely (inharmonic spectra
produce astronomically small exact harmonicities), in which case the full
float survives in scientific notation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import __version__
from .consonance import ConsonanceScore
from .core import cents, format_ratio, parse_ratio
from .notes import note_name
from .tuning import TuningEntry, TuningTable

__all__ = ["DocumentEntry", "TuningDocument", "export_scl"]

TOOL_NAME = "toneset"


def _display_float(value: Fraction) -> float:
    x = float(value)
    if x == 0.0 or abs(x) >= 0.0005:
        return round(x, 3)
    return x  # too small for 3 decimals; keep full precision


@dataclass(frozen=True)
class DocumentEntry:
    interval: Fraction
    affinity: Fraction
    harmonicity: Fraction
    note: Optional[str] = None

    @property
    def total(self) -> Fraction:
        return (self.affinity + self.harmonicity) / 2

    def as_dict(self) -> dict:
        data = {
            "interval": format_ratio(self.interval, always_slash=True),
            "cents": round(cents(self.interval), 4),
            "affinity": format_ratio(self.affinity, always_slash=True),
            "harmonicity": format_ratio(self.harmonicity, always_slash=True),
            "total": format_ratio(self.total, always_slash=True),
            "affinity_float": _display_float(self.affinity),
            "harmonicity_float": _display_float(self.harmonicity),
            "total_float": _display_float(self.total),
        }
        if self.note is not None:
            data["note"] = self.note
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


class TuningDocument:
    """A tuning table plus the metadata needed to regenerate and rescore it."""

    def __init__(self, metadata: dict, entries: list[DocumentEntry]):
        intervals = [e.interval for e in entries]
        if any(b <= a for a, b in zip(intervals, intervals[1:])):
            raise ValueError("document entries must be strictly increasing by interval")
        self.metadata = metadata
        self.entries = list(entries)

    @classmethod
    def from_table(
        cls,
        table: TuningTable,
        context_expr: str,
        complement_expr: str,
        parameters: Optional[dict] = None,
        annotate_root: Optional[Fraction] = None,
    ) -> "TuningDocument":
        entries = []
        for entry in table.entries:
            note = None
            if annotate_root is not None:
                try:
                    note = note_name(annotate_root * entry.interval).render()
                except ValueError:
                    note = None  # outside the naming span; leave unannotated
            entries.append(
                DocumentEntry(
                    interval=entry.interval,
                    affinity=entry.score.affinity,
                    harmonicity=entry.score.harmonicity,
                    note=note,
                )
            )
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
        entries = tuple(
            TuningEntry(e.interval, ConsonanceScore(e.affinity, e.harmonicity))
            for e in self.entries
        )
        return TuningTable(
            entries,
            self.metadata.get("generator", "unknown"),
            f"F={self.metadata.get('context', '?')}; F'={self.metadata.get('complement', '?')}",
        )

    def as_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "entries": [e.as_dict() for e in self.entries],
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
        entries = []
        for index, raw in enumerate(data["entries"]):
            if not isinstance(raw, dict):
                raise ValueError(f"invalid tuning document: entry {index} is not an object")
            entry = DocumentEntry(
                interval=_ratio_field(raw, index, "interval"),
                affinity=_ratio_field(raw, index, "affinity"),
                harmonicity=_ratio_field(raw, index, "harmonicity"),
                note=raw.get("note"),
            )
            if "total" in raw and _ratio_field(raw, index, "total") != entry.total:
                raise ValueError(
                    f"inconsistent entry: total {raw['total']} is not the mean of "
                    f"affinity and harmonicity at interval {raw['interval']}"
                )
            entries.append(entry)
        return cls(data["metadata"], entries)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["interval_ratio", "cents", "affinity", "harmonicity", "total"])
        for e in self.entries:
            writer.writerow(
                [
                    format_ratio(e.interval, always_slash=True),
                    f"{cents(e.interval):.4f}",
                    repr(float(e.affinity)),
                    repr(float(e.harmonicity)),
                    repr(float(e.total)),
                ]
            )
        return buffer.getvalue()


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
            lines.append(format_ratio(t, always_slash=True))
    return "\n".join(lines) + "\n"
