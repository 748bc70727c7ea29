"""Textual notation for frequency sets.

Grammar shared by the command line and document metadata:

* explicit lists of exact ratios:  ``262,524,786`` (decimals stay exact)
* harmonic shorthand:              ``262*N6``  (first 6 multiples of 262)
* note labels:                     ``C4_6@262`` (partials mandatory; ``@``
                                   overrides the default grid reference)
* unions:                          parts joined with ``+``
"""

from __future__ import annotations

import functools
import operator
import re

from .core import FrequencySet, ParseError, format_ratio, parse_ratio
from .notes import NoteName, note_set

__all__ = ["parse_set_expression", "canonical_set_expression"]

_HARMONIC_RE = re.compile(r"^(?P<fund>.+)\*N_?(?P<count>\d+)$")
_NOTE_RE = re.compile(r"^(?P<note>[A-G][#b]?-?\d+_\d+)(?:@(?P<ref>.+))?$")


def _parse_term(token: str) -> FrequencySet:
    term = token.strip()
    if not term:
        raise ParseError("empty frequency-set term")
    match = _HARMONIC_RE.match(term)
    if match is not None:
        count = int(match.group("count"))
        if count < 1:
            raise ParseError(f"harmonic shorthand {term!r} needs at least 1 partial")
        return FrequencySet.harmonic(parse_ratio(match.group("fund")), count)
    match = _NOTE_RE.match(term)
    if match is not None:
        reference = match.group("ref")
        return note_set(
            NoteName.parse(match.group("note")),
            parse_ratio(reference) if reference is not None else None,
        )
    return FrequencySet(parse_ratio(part) for part in term.split(","))


def parse_set_expression(text: str) -> FrequencySet:
    """Parse a set expression, unioning '+'-joined terms."""
    expr = text.strip()
    if not expr:
        raise ParseError("empty frequency-set expression")
    # a one-term expression is its term, not a rebuilt copy of it
    return functools.reduce(operator.or_, map(_parse_term, expr.split("+")))


def canonical_set_expression(freq_set: FrequencySet) -> str:
    """Explicit-list form that parses back to the identical set."""
    return ",".join(format_ratio(f, label="frequency") for f in freq_set)
