"""Note naming on the 12-tone equal-tempered grid (A4 = 440 Hz).

A note label covers the half-open window of +-50 cents around its grid
pitch, so every positive frequency in the supported span C0..D#8 gets
exactly one name. Window membership is decided exactly: f = u/v falls in
the window of the pitch 440 * 2^(i/12) iff

    2^(2i-1) <= (u / (440 v))^24 < 2^(2i+1)

which is tested on the integers u^24 and (440 v)^24 with shifts, never on
floats or Fractions; a rational frequency can never land on a boundary (the
bounds are irrational), so the half-open convention never actually has to
break a tie.

Labels carry an optional partial count: "A2_4" is the A2 note built from
4 harmonic partials. The window test gives a semitone index, from which
names are looked up or built (README, "Sets and names from text are built
on integers").
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import (
    FrequencySet, ParseError, RatioLike, _count_of, _excerpt, _ratio_terms, format_ratio, to_ratio,
)

__all__ = [
    "NoteName",
    "note_name",
    "grid_frequency",
    "note_set",
]

PITCH_CLASSES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
_FLAT_TO_SHARP = {"Db": "C#", "Eb": "D#", "Gb": "F#", "Ab": "G#", "Bb": "A#"}
_PC_INDEX = {name: i for i, name in enumerate(PITCH_CLASSES)}
_PC_INDEX.update({flat: _PC_INDEX[sharp] for flat, sharp in _FLAT_TO_SHARP.items()})

_NOTE_RE = re.compile(r"^(?P<pc>[A-G][#b]?)(?P<octave>-?\d+)(?:_(?P<partials>\d+))?$")

# Supported naming span in semitone index (A4 = 69): C0 through D#8.
_LOWEST_MIDI = 12
_HIGHEST_MIDI = 111
_A4_MIDI = 69
_A4_HZ = 440
_LOG2_A4 = math.log2(_A4_HZ)
_SPAN = "the supported note span C0..D#8 (about 15.89 Hz to 5123.9 Hz)"
# The names of the span's notes, C0 first, as NoteName.render() writes them.
_SPAN_TEXTS = tuple(f"{PITCH_CLASSES[m % 12]}{m // 12 - 1}" for m in range(_LOWEST_MIDI, _HIGHEST_MIDI + 1))


@dataclass(frozen=True)
class NoteName:
    """Pitch-class/octave label with optional partial-count subscript."""

    pitch_class: str
    octave: int
    partials: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pitch_class not in _PC_INDEX:
            raise ParseError(f"unknown pitch class {self.pitch_class!r}")
        if self.partials is not None and self.partials < 1:
            raise ValueError("partial count must be at least 1")

    @classmethod
    def parse(cls, text: str) -> "NoteName":
        token = text.strip()
        match = _NOTE_RE.match(token)
        if match is None:
            raise ParseError(
                f"cannot parse note name {_excerpt(token)!r} (expected e.g. 'C#5' or 'C#5_3')"
            )
        octave, partials = match.group("octave", "partials")
        # no octave of the span has two digits; int() reads no long run
        if len(octave.lstrip("-0")) > 4:
            raise ValueError(f"note {_excerpt(token)} is outside {_SPAN}")
        return cls(
            pitch_class=match.group("pc"),
            octave=int(octave),
            partials=_count_of(partials) if partials is not None else None,
        )

    def render(self) -> str:
        tail = f"_{self.partials}" if self.partials is not None else ""
        return f"{self.pitch_class}{self.octave}{tail}"

    __str__ = render

    @property
    def pitch_class_index(self) -> int:
        """0..11 with enharmonic flats resolved (Db and C# share index 1)."""
        return _PC_INDEX[self.pitch_class]

    @property
    def midi(self) -> int:
        """Semitone index with C4 = 60, A4 = 69."""
        return 12 * (self.octave + 1) + self.pitch_class_index

    def same_pitch(self, other: "NoteName") -> bool:
        return self.midi == other.midi


def _midi_in_span(numerator: int, denominator: int) -> Optional[int]:
    """The semitone index of :func:`note_name` for the positive frequency
    numerator/denominator (in any terms), or None outside the span, decided
    on integers."""
    estimate = 12.0 * (math.log2(numerator) - math.log2(denominator) - _LOG2_A4)
    i = round(estimate)
    # The estimate lies within a semitone of the exact index, so one further
    # outside the span is out of it without raising freq to the 24th power.
    if not _LOWEST_MIDI - 1 <= i + _A4_MIDI <= _HIGHEST_MIDI + 1:
        return None
    # The exact window test of the module docstring, on integers: the power
    # of 2 is a shift of whichever side keeps it whole.
    u, v = numerator**24, (_A4_HZ * denominator) ** 24
    while not _at_least(u, v, 2 * i - 1):
        i -= 1
    while _at_least(u, v, 2 * i + 1):
        i += 1
    midi = i + _A4_MIDI
    return midi if _LOWEST_MIDI <= midi <= _HIGHEST_MIDI else None


def _note_text(numerator: int, denominator: int) -> Optional[str]:
    """The rendered :func:`note_name` of the positive frequency
    numerator/denominator (in any terms), or None outside the span."""
    midi = _midi_in_span(numerator, denominator)
    return None if midi is None else _SPAN_TEXTS[midi - _LOWEST_MIDI]


def _at_least(u: int, v: int, k: int) -> bool:
    """Whether u >= 2^k * v, for positive u and v."""
    return u >= v << k if k >= 0 else u << -k >= v


def note_name(freq: RatioLike) -> NoteName:
    """Name of the note whose +-50 cent window contains ``freq``.

    Raises for frequencies outside the supported C0..D#8 span.
    """
    f = to_ratio(freq)
    if f.numerator <= 0:
        raise ValueError("frequency must be positive")
    midi = _midi_in_span(f.numerator, f.denominator)
    if midi is None:
        raise ValueError(f"frequency {_excerpt(format_ratio(f))} Hz is outside {_SPAN}")
    return NoteName(PITCH_CLASSES[midi % 12], midi // 12 - 1)


def grid_frequency(note: Union[NoteName, str]) -> Fraction:
    """Equal-tempered grid pitch of a note as an exact rational.

    The irrational 12-tet value is rounded to 0.01 Hz so the rational layer
    stays closed; the result is always well inside the note's window.
    A4 comes out exactly 440. Raises for notes outside the C0..D#8 span.
    """
    name = NoteName.parse(note) if isinstance(note, str) else note
    if not _LOWEST_MIDI <= name.midi <= _HIGHEST_MIDI:
        raise ValueError(f"note {_excerpt(name.render())} is outside {_SPAN}")
    value = 440.0 * 2.0 ** ((name.midi - _A4_MIDI) / 12.0)
    return Fraction(*_ratio_terms(f"{value:.2f}"))


def note_set(
    name: Union[NoteName, str], reference_freq: Optional[RatioLike] = None
) -> FrequencySet:
    """Harmonic set for a labelled note, e.g. A2_4 at 110 Hz.

    The label must carry a partial count. The reference frequency (grid
    default) must fall inside the named note's window.
    """
    note = NoteName.parse(name) if isinstance(name, str) else name
    if note.partials is None:
        raise ValueError(f"note {_excerpt(note.render())!r} carries no partial count")
    reference = grid_frequency(note) if reference_freq is None else to_ratio(reference_freq)
    actual = note_name(reference)
    if not actual.same_pitch(note):
        raise ValueError(
            f"frequency/name mismatch: {_excerpt(format_ratio(reference))} Hz falls in "
            f"{actual.render()}, not {NoteName(note.pitch_class, note.octave).render()}"
        )
    return FrequencySet.harmonic(reference, note.partials)
