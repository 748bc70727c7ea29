"""Textual notation for frequency sets.

Grammar shared by the command line and document metadata:

* explicit lists of exact ratios:  ``262,524,786`` (decimals stay exact)
* harmonic shorthand:              ``262*N6``  (first 6 multiples of 262)
* note labels:                     ``C4_6@262`` (partials mandatory; ``@``
                                   overrides the default grid reference)
* unions:                          parts joined with ``+``

Terms are built on integers (README, "Sets and names from text are built
on integers").
"""

from __future__ import annotations

import math
import re

from .core import FrequencySet, ParseError, _count_of, _excerpt, _ratio_terms, _ratio_text, _union, parse_ratio
from .notes import NoteName, note_set

__all__ = ["parse_set_expression", "canonical_set_expression"]

_HARMONIC_RE = re.compile(r"^(?P<fund>.+)\*N_?(?P<count>\d+)$")
_NOTE_RE = re.compile(r"^(?P<note>[A-G][#b]?-?\d+_\d+)(?:@(?P<ref>.+))?$")


def _parse_term(token: str) -> FrequencySet | tuple[int, int]:
    """A term's set, or a single positive value's reduced pair."""
    term = token.strip()
    if not term:
        raise ParseError("empty frequency-set term")
    match = _HARMONIC_RE.match(term)
    if match is not None:
        count = _count_of(match.group("count"))
        if count < 1:
            raise ParseError(f"harmonic shorthand {_excerpt(term)!r} needs at least 1 partial")
        return FrequencySet.harmonic(parse_ratio(match.group("fund")), count)
    match = _NOTE_RE.match(term)
    if match is not None:
        reference = match.group("ref")
        return note_set(
            NoteName.parse(match.group("note")),
            parse_ratio(reference) if reference is not None else None,
        )
    if "," not in term:
        pair = _ratio_terms(term)
        if pair[0] > 0:  # FrequencySet refuses the others
            return pair
    return FrequencySet(term.split(","))


def parse_set_expression(text: str) -> FrequencySet:
    """Parse a set expression, unioning '+'-joined terms in one pass; the
    first bad term, from the left, is the one refused."""
    expr = text.strip()
    if not expr:
        raise ParseError("empty frequency-set expression")
    # a one-term expression is its term, not a rebuilt copy of it; a single
    # value joins the union as its pair, building no set of its own
    terms = [_parse_term(term) for term in expr.split("+")]
    return _union([t for t in terms if type(t) is not tuple], [t for t in terms if type(t) is tuple])


def canonical_set_expression(freq_set: FrequencySet) -> str:
    """Explicit-list form that parses back to the identical set."""
    if not freq_set:
        return ""
    a, multipliers, _ = freq_set._lattice_view()
    # a*n = an*n/ad in lowest terms once gcd(n, ad) is taken out, as an/ad is
    an, ad = a.numerator, a.denominator
    return ",".join(
        _ratio_text(an * (n // g), ad // g, label="frequency")
        for n in multipliers for g in (math.gcd(n, ad),)
    )
