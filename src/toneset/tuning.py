"""Tuning generation from consonance measures.

Three generators, each producing a table of (interval, consonance) pairs for
a contextual set F and a complementary set F' that is transposed against it:

* affinitive - every pairwise frequency ratio f/f'. These are exactly the
  transpositions with nonzero affinity, so the table is finite and cheap.
* harmonic - all reduced rationals within enumeration bounds whose
  union-harmonicity clears a threshold h. Rich for sparse spectra but needs
  explicit bounds (defaults: +-3 octaves, denominators up to 60).
* superset - affinitive intervals of the harmonic supersets of F and F',
  scored on the original sets. Contains the affinitive table and never
  misses a high-harmonicity interval.

Every table is scored by one exact path: the consonance layer's private
transposition scorer compares F with tF' in integer arithmetic on the sets'
fundamentals and multipliers, so scoring a transposition never materialises
the transposed set, and the harmonic generator filters and scores each
candidate in the same pass. The public consonance functions
(``total_consonance(F, F'.transpose(t))``) compute the same Fractions from
the sets themselves and serve as the oracle the tests compare against.

Octave reduction folds intervals into [1, 2) and rescores them from scratch;
consonance is not preserved by octave transposition (4/5 folds to 8/5, which
shares no partials with a six-partial context), so carried-over scores would
be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .consonance import ConsonanceScore, _transposition_scorer, harmonic_superset
from .core import FrequencySet, RatioLike, format_ratio, format_set, to_ratio

__all__ = [
    "TuningEntry",
    "TuningTable",
    "affinitive_intervals",
    "affinitive_tuning",
    "enumerate_rationals",
    "harmonic_intervals",
    "harmonic_tuning",
    "superset_tuning",
    "fold_to_octave",
    "octave_reduce",
]


@dataclass(frozen=True)
class TuningEntry:
    interval: Fraction
    score: ConsonanceScore
    note: str | None = None  # note name, set only when a document is annotated


@dataclass(frozen=True)
class TuningTable:
    """Entries sorted by interval, plus a record of how they were generated."""

    entries: tuple[TuningEntry, ...]
    generator: str
    context_descriptor: str

    def __post_init__(self) -> None:
        intervals = [e.interval for e in self.entries]
        if any(b <= a for a, b in zip(intervals, intervals[1:])):
            raise ValueError("tuning entries must be strictly increasing by interval")

    @property
    def intervals(self) -> tuple[Fraction, ...]:
        return tuple(e.interval for e in self.entries)


def _scored(
    intervals: Iterable[Fraction],
    contextual: FrequencySet,
    complementary: FrequencySet,
    threshold: Fraction = Fraction(0),
) -> tuple[TuningEntry, ...]:
    """Entries for the intervals whose harmonicity exceeds the threshold, in order."""
    score = _transposition_scorer(contextual, complementary, threshold)
    entries = []
    for t in intervals:
        result = score(t)
        if result is not None:
            entries.append(TuningEntry(t, result))
    return tuple(entries)


def _table(
    intervals,
    contextual: FrequencySet,
    complementary: FrequencySet,
    generator: str,
    descriptor: str,
) -> TuningTable:
    entries = _scored(sorted(intervals), contextual, complementary)
    return TuningTable(entries, generator, descriptor)


def affinitive_intervals(
    contextual: FrequencySet, complementary: FrequencySet
) -> frozenset[Fraction]:
    """All pairwise ratios f/f' - the transpositions with nonzero affinity."""
    if not contextual or not complementary:
        raise ValueError("empty frequency set")
    return frozenset(f / g for f in contextual for g in complementary)


def affinitive_tuning(
    contextual: FrequencySet, complementary: FrequencySet
) -> TuningTable:
    """One scored entry per affinitive interval."""
    descriptor = f"F={format_set(contextual)}; F'={format_set(complementary)}"
    return _table(
        affinitive_intervals(contextual, complementary),
        contextual,
        complementary,
        "affinitive",
        descriptor,
    )


def enumerate_rationals(lo: RatioLike, hi: RatioLike, max_den: int) -> list[Fraction]:
    """All reduced fractions p/q with q <= max_den and lo <= p/q <= hi, ascending.

    Runs the Farey next-term rule (Graham, Knuth, Patashnik, *Concrete
    Mathematics* 4.5): consecutive terms a/b < c/d of order n are followed by
    (k*c - a)/(k*d - b) with k = (n + b) // d. Shifting by an integer keeps
    denominators, so the rule walks straight across unit intervals; the
    terms come out reduced and ascending, and only integers are touched
    until each Fraction is built.
    """
    low, high = to_ratio(lo), to_ratio(hi)
    if not 0 < low < high:
        raise ValueError(f"invalid range [{format_ratio(low)}, {format_ratio(high)}]")
    if max_den < 1:
        raise ValueError("max_den must be at least 1")
    a, b, c, d = _farey_bracket(low, max_den)
    hn, hd = high.numerator, high.denominator
    found: list[Fraction] = []
    while c * hd <= hn * d:
        found.append(Fraction(c, d))
        k = (max_den + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return found


def _farey_bracket(x: Fraction, n: int) -> tuple[int, int, int, int]:
    """Consecutive terms a/b < x <= c/d among the fractions with denominator <= n.

    Descends the Stern-Brocot tree from the unit interval around x, moving
    one bound toward x as far as it can go in a single step (a run of the
    continued fraction), so it takes logarithmically many steps in n.
    """
    u, v = x.numerator, x.denominator
    c = -(-u // v)  # ceil(x), so that c - 1 < x <= c
    a, b, d = c - 1, 1, 1
    while True:
        below = u * b - a * v  # > 0: a/b < x
        above = c * v - u * d  # >= 0: x <= c/d
        # raise a/b to (a + j*c)/(b + j*d) while it stays below x
        j = (n - b) // d
        if above:
            j = min(j, (below - 1) // above)
        a, b = a + j * c, b + j * d
        below = u * b - a * v
        # lower c/d to (c + i*a)/(d + i*b) while it stays at or above x
        i = min((n - d) // b, above // below)
        c, d = c + i * a, d + i * b
        if not (i or j):
            return a, b, c, d


def harmonic_intervals(
    contextual: FrequencySet,
    complementary: FrequencySet,
    h: RatioLike,
    lo: RatioLike = Fraction(1, 8),
    hi: RatioLike = Fraction(8),
    max_den: int = 60,
) -> frozenset[Fraction]:
    """Candidate intervals whose union-harmonicity strictly exceeds h."""
    return frozenset(harmonic_tuning(contextual, complementary, h, lo, hi, max_den).intervals)


def harmonic_tuning(
    contextual: FrequencySet,
    complementary: FrequencySet,
    h: RatioLike,
    lo: RatioLike = Fraction(1, 8),
    hi: RatioLike = Fraction(8),
    max_den: int = 60,
) -> TuningTable:
    """Scored table over the harmonicity-thresholded interval set.

    One pass: each candidate is thresholded and scored by the same call.
    """
    threshold = to_ratio(h)
    descriptor = (
        f"F={format_set(contextual)}; F'={format_set(complementary)}; "
        f"h={format_ratio(threshold)}; lo={format_ratio(to_ratio(lo))}; "
        f"hi={format_ratio(to_ratio(hi))}; max_den={max_den}"
    )
    if not 0 <= threshold < 1:
        raise ValueError("harmonicity threshold h must lie in [0, 1)")
    if not contextual or not complementary:
        raise ValueError("empty frequency set")
    entries = _scored(enumerate_rationals(lo, hi, max_den), contextual, complementary, threshold)
    return TuningTable(entries, "harmonic", descriptor)


def superset_tuning(
    contextual: FrequencySet,
    complementary: FrequencySet,
    n: int = 0,
    m: int = 0,
) -> TuningTable:
    """Affinitive intervals of the harmonic supersets, scored on the originals.

    The supersets (extended by n and m partials) only generate candidate
    intervals; consonance is measured against the real spectra, so entries
    with zero affinity are normal and kept.
    """
    if not contextual or not complementary:
        raise ValueError("empty frequency set")
    intervals = affinitive_intervals(
        harmonic_superset(contextual, n), harmonic_superset(complementary, m)
    )
    descriptor = (
        f"F={format_set(contextual)}; F'={format_set(complementary)}; n={n}; m={m}"
    )
    return _table(intervals, contextual, complementary, "superset", descriptor)


def fold_to_octave(interval: RatioLike) -> Fraction:
    """Transpose an interval by octaves into [1, 2)."""
    t = to_ratio(interval)
    if t <= 0:
        raise ValueError("interval must be positive")
    while t < 1:
        t *= 2
    while t >= 2:
        t /= 2
    return t


def octave_reduce(
    table: TuningTable,
    contextual: FrequencySet,
    complementary: FrequencySet,
) -> TuningTable:
    """Fold every interval into [1, 2), deduplicate, and rescore.

    Scores are recomputed against the source sets rather than carried over:
    an interval and its octave transposition generally have different
    consonance.
    """
    folded = {fold_to_octave(e.interval) for e in table.entries}
    return _table(
        folded,
        contextual,
        complementary,
        table.generator,
        table.context_descriptor + "; octave-reduced",
    )
