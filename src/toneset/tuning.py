"""Tuning generation from consonance measures.

Three generators, each producing a table of (interval, consonance) pairs for
a contextual set F and a complementary set F' that is transposed against it:

* affinitive - every pairwise frequency ratio f/f'. These are exactly the
  transpositions with nonzero affinity, so the table is finite and cheap.
* harmonic - all reduced rationals within enumeration bounds whose
  union-harmonicity clears a threshold h. Rich for sparse spectra. For
  h = 0 it needs its bounds (defaults: +-3 octaves, denominators up to
  60); for h > 0 every interval that clears h already lies in a finite
  rectangle (below).
* superset - affinitive intervals of the harmonic supersets of F and F',
  scored on the original sets. Contains the affinitive table and never
  misses a high-harmonicity interval.

Every table is scored by one exact path: the consonance layer's private
lattice scorer compares F with tF' in integer arithmetic on the sets'
fundamentals a, b and multipliers, taking t as the reduced integers of
t*b/a, so scoring a transposition never materialises the transposed set.
The public consonance functions (``total_consonance(F, F'.transpose(t))``)
compute the same Fractions from the sets themselves and serve as the oracle
the tests compare against.

The harmonic and superset generators and ``enumerate_rationals`` take their
candidates from one walk, ``_walk(low, high, max_num, max_den)``: the
reduced p/q in [low, high] with p <= max_num and q <= max_den, as integer
pairs in ascending order (one Farey next-term rule), so nothing sorts and a
Fraction is built only for an entry that is kept.

* harmonic, bounded - the reduced t in [lo, hi] with denominators up to
  D = max_den: ``_walk(lo, hi, floor(hi*D), D)``, whose numerator bound
  removes nothing. ``enumerate_rationals`` is the same walk.
* harmonic, rectangle, for h = hn/hd > 0: with F = a*N, G = b*M and
  t*b/a = p/q reduced, the harmonicity is at most
  S / max(q*N_top, p*M_top) for S = |N| + |M|, so every interval that
  clears h has p <= P = (S*hd - 1) // (hn*M_top) and
  q <= Q = (S*hd - 1) // (hn*N_top): ``_walk(lo*b/a, hi*b/a, P, Q)``.
  t = p*a/(q*b) rises with p/q, and a t whose denominator exceeds max_den
  is skipped unscored. It is taken when P*Q is below the bounded walk's
  bound (hi - lo)*D*(D+1)/2 + D; a tiny h makes the rectangle huge, and
  the bounded walk is taken, as it always is for h = 0.
* superset - the supersets are a*{1..k} and b*{1..k'}, so their pairwise
  ratios are exactly (a/b)*p/q over the reduced p/q with p <= k and
  q <= k': ``_walk(1/k', k, k, k')``, whose p/q is already the t*b/a the
  scorer takes.

One refusal rule serves every walk: more than ``MAX_TABLE_ENTRIES``
candidates are refused before the first is built. They are counted only
when both max_num*max_den and (high - low)*max_den*(max_den + 1)/2 + max_den
bound them above the cap, exactly, by Moebius inversion over the shorter
side of the box (``_reduced_count``).

Octave reduction folds intervals into [1, 2) and rescores them from scratch;
consonance is not preserved by octave transposition (4/5 folds to 8/5, which
shares no partials with a six-partial context), so carried-over scores would
be wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, pairwise
from typing import Iterable, Iterator

from .consonance import ConsonanceScore, _lattice_scorer, harmonic_superset
from .core import FrequencySet, RatioLike, format_ratio, to_ratio

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

# Most candidates a walk (a harmonic or superset table,
# ``enumerate_rationals``) may visit. Larger walks are refused, after a count
# and before any entry is built. The superset table of fig5_4's two-decimal
# inharmonic spectrum against itself has 2,115,723 entries and fits.
MAX_TABLE_ENTRIES = 2**22

# Longest shorter side of a walk's box whose candidates are counted by
# Moebius inversion, in time and memory linear in that side. Past it, the
# count up to _SIEVE_LIMIT is a lower bound; when that does not exceed the
# cap, the walk itself is counted, stopping after MAX_TABLE_ENTRIES + 1
# candidates.
_SIEVE_LIMIT = 2**16


@dataclass(frozen=True)
class TuningEntry:
    interval: Fraction
    score: ConsonanceScore
    note: str | None = None  # note name, set only when a document is annotated


@dataclass(frozen=True)
class TuningTable:
    """Entries sorted by interval and the name of the generator that made
    them; the sets and parameters they came from are the document's
    metadata."""

    entries: tuple[TuningEntry, ...]
    generator: str

    def __post_init__(self) -> None:
        pairs = ((e.interval.numerator, e.interval.denominator) for e in self.entries)
        if any(c * b <= a * d for (a, b), (c, d) in pairwise(pairs)):
            raise ValueError("tuning entries must be strictly increasing by interval")

    @property
    def intervals(self) -> tuple[Fraction, ...]:
        return tuple(e.interval for e in self.entries)


def _table(
    intervals: Iterable[Fraction],
    contextual: FrequencySet,
    complementary: FrequencySet,
    generator: str,
) -> TuningTable:
    """The intervals, sorted and scored (threshold 0 keeps every one)."""
    score = _lattice_scorer(contextual, complementary)
    # the scorer takes t as the integers of t*b/a in lowest terms
    ratio = complementary.fundamental() / contextual.fundamental()
    entries = tuple(
        TuningEntry(t, score(*(t * ratio).as_integer_ratio())) for t in sorted(intervals)
    )
    return TuningTable(entries, generator)


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
    return _table(
        affinitive_intervals(contextual, complementary), contextual, complementary, "affinitive"
    )


def enumerate_rationals(lo: RatioLike, hi: RatioLike, max_den: int) -> list[Fraction]:
    """All reduced fractions p/q with q <= max_den and lo <= p/q <= hi, ascending."""
    low, high = _checked_range(lo, hi, max_den)
    # every p/q <= high with q <= max_den has p <= high*max_den
    top = high.numerator * max_den // high.denominator
    return [Fraction(c, d) for c, d in _walk(low, high, top, max_den)]


def _checked_range(lo: RatioLike, hi: RatioLike, max_den: int) -> tuple[Fraction, Fraction]:
    low, high = to_ratio(lo), to_ratio(hi)
    if not 0 < low < high:
        raise ValueError(
            f"invalid range [{format_ratio(low, label='lo')}, {format_ratio(high, label='hi')}]"
        )
    if max_den < 1:
        raise ValueError("max_den must be at least 1")
    return low, high


def _walk_bound(low: Fraction, high: Fraction, max_den: int) -> Fraction:
    """Cheap upper bound on the p/q in [low, high] with q <= max_den: each
    q has at most (high - low)*q + 1 numerators in range."""
    return (high - low) * max_den * (max_den + 1) / 2 + max_den


def _walk(low: Fraction, high: Fraction, max_num: int, max_den: int) -> Iterator[tuple[int, int]]:
    """The reduced p/q in [low, high], 0 < low, with p <= max_num and
    q <= max_den, ascending; none when max_num or max_den is below 1.

    A walk of more than ``MAX_TABLE_ENTRIES`` candidates is refused before
    the first pair is asked for. The candidates are counted only when both
    max_num*max_den and ``_walk_bound`` exceed the cap: exactly by
    ``_reduced_count``, or, when both sides exceed ``_SIEVE_LIMIT`` and that
    count's lower bound does not exceed the cap, by walking them, at most
    MAX_TABLE_ENTRIES + 1 steps.
    """
    if max_num < 1 or max_den < 1:
        return iter(())
    hn, hd = high.numerator, high.denominator
    walk = (*_farey_bracket(low, max_num, max_den), max_num, max_den, hn, hd)
    if min(max_num * max_den, _walk_bound(low, high, max_den)) > MAX_TABLE_ENTRIES:
        partial = min(max_num, max_den) > _SIEVE_LIMIT
        count = _reduced_count(low, high, max_num, max_den)
        if partial and count <= MAX_TABLE_ENTRIES:
            count = sum(1 for _ in islice(_farey_walk(*walk), MAX_TABLE_ENTRIES + 1))
        if count > MAX_TABLE_ENTRIES:
            count, low, high, max_num = (
                format_ratio(x, label=label)
                for x, label in ((count, "candidate count"), (low, "lower bound"),
                                 (high, "upper bound"), (max_num, "numerator bound"))
            )
            raise ValueError(
                f"{'at least ' if partial else ''}{count} candidate intervals p/q in "
                f"[{low}, {high}] with p <= {max_num} and q <= {max_den} exceed the limit "
                f"of {MAX_TABLE_ENTRIES}"
            )
    return _farey_walk(*walk)


def _farey_walk(
    a: int, b: int, c: int, d: int, max_num: int, max_den: int, hn: int, hd: int
) -> Iterator[tuple[int, int]]:
    """Yield (c, d) and its successors up to hn/hd among the reduced
    fractions with numerator <= max_num and denominator <= max_den.

    a/b < c/d must be consecutive in that set. Runs the Farey next-term rule
    (Graham, Knuth, Patashnik, *Concrete Mathematics* 4.5) on the rectangle:
    consecutive terms a/b < c/d are followed by (j*c - a)/(j*d - b) with
    j = min((max_den + b) // d, (max_num + a) // c). The terms come out
    reduced and ascending; after max_num/1 comes 1/0, which ends any walk
    whose bound is finite.
    """
    while c * hd <= hn * d:
        yield c, d
        j = min((max_den + b) // d, (max_num + a) // c)
        a, b, c, d = c, d, j * c - a, j * d - b


def _farey_bracket(x: Fraction, max_num: int, max_den: int) -> tuple[int, int, int, int]:
    """Consecutive terms a/b < x <= c/d among the reduced fractions with
    numerator <= max_num and denominator <= max_den, both at least 1; c/d
    is 1/0 when every such fraction lies below x.

    Descends the Stern-Brocot tree from 0/1 and 1/0, moving one bound toward
    x as far as it can go in a single step (a run of the continued
    fraction), so it takes logarithmically many steps in the bounds. It
    stops when the mediant (a + c)/(b + d) leaves the rectangle: every
    fraction strictly between a/b and c/d has at least that numerator and
    denominator.
    """
    u, v = x.numerator, x.denominator
    a, b, c, d = 0, 1, 1, 0
    while True:
        below = u * b - a * v  # > 0: a/b < x
        above = c * v - u * d  # >= 0: x <= c/d
        # raise a/b to (a + j*c)/(b + j*d) while it stays below x and inside
        j = min((below - 1) // above if above else max_den, (max_num - a) // c)
        if d:
            j = min(j, (max_den - b) // d)
        a, b = a + j * c, b + j * d
        below = u * b - a * v
        # lower c/d to (c + i*a)/(d + i*b) while it stays at or above x and inside
        i = min((max_den - d) // b, above // below)
        if a:
            i = min(i, (max_num - c) // a)
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
    For h > 0 the candidates come from the rectangle of ``_rectangle_sides``
    when its area is below the bounded walk's cheap bound (module docstring).
    """
    threshold = to_ratio(h)
    if not 0 <= threshold < 1:
        raise ValueError("harmonicity threshold h must lie in [0, 1)")
    score = _lattice_scorer(contextual, complementary, threshold)  # refuses empty sets
    low, high = _checked_range(lo, hi, max_den)
    # the scorer takes t as p/q = t*b/a, so t = p*rd/(q*rn) for r = b/a = rn/rd
    ratio = complementary.fundamental() / contextual.fundamental()
    rn, rd = ratio.numerator, ratio.denominator
    gcd = math.gcd
    entries = []
    sides = threshold and _rectangle_sides(contextual, complementary, threshold)
    if sides and sides[0] * sides[1] < _walk_bound(low, high, max_den):
        # t rises with p/q, so the entries come out ascending
        for p, q in _walk(low * ratio, high * ratio, *sides):
            c, d = p * rd, q * rn
            g = gcd(c, d)
            if d <= max_den * g:
                result = score(p, q)
                if result is not None:
                    entries.append(TuningEntry(Fraction(c // g, d // g), result))
    else:
        for c, d in _walk(low, high, high.numerator * max_den // high.denominator, max_den):
            p, q = c * rn, d * rd
            g = gcd(p, q)
            result = score(p // g, q // g)
            if result is not None:
                entries.append(TuningEntry(Fraction(c, d), result))
    return TuningTable(tuple(entries), "harmonic")


def _rectangle_sides(
    contextual: FrequencySet, complementary: FrequencySet, threshold: Fraction
) -> tuple[int, int]:
    """Bounds P, Q on the reduced p/q = t*b/a whose harmonicity can exceed
    ``threshold`` = hn/hd > 0.

    With F = a*N and G = b*M the harmonicity is at most
    S / max(q*N_top, p*M_top) for S = |N| + |M|, so exceeding hn/hd needs
    hn*p*M_top <= S*hd - 1 and hn*q*N_top <= S*hd - 1.
    """
    _, n_all, _ = contextual._lattice_view()
    _, m_all, _ = complementary._lattice_view()
    room = (len(n_all) + len(m_all)) * threshold.denominator - 1
    return room // (threshold.numerator * m_all[-1]), room // (threshold.numerator * n_all[-1])


def superset_tuning(
    contextual: FrequencySet,
    complementary: FrequencySet,
    n: int = 0,
    m: int = 0,
) -> TuningTable:
    """Affinitive intervals of the harmonic supersets, scored on the originals.

    The supersets (extended by n and m partials) only generate candidate
    intervals; consonance is measured against the real spectra, so entries
    with zero affinity are normal and kept. A table of more than
    ``MAX_TABLE_ENTRIES`` entries is refused before any is built.
    """
    # the supersets are a*{1..k} and b*{1..kk}, so their pairwise ratios
    # are (a/b)*p/q over the reduced p/q with p <= k and q <= kk
    a, k_all, _ = harmonic_superset(contextual, n)._lattice_view()
    b, kk_all, _ = harmonic_superset(complementary, m)._lattice_view()
    k, kk = k_all[-1], kk_all[-1]
    walk = _walk(Fraction(1, kk), Fraction(k), k, kk)
    # the superset fundamentals are the originals', so p/q is exactly the
    # t*b/a the scorer takes
    score = _lattice_scorer(contextual, complementary)
    ratio = a / b
    rn, rd = ratio.numerator, ratio.denominator
    entries = tuple(TuningEntry(Fraction(p * rn, q * rd), score(p, q)) for p, q in walk)
    return TuningTable(entries, "superset")


def _mobius(top: int) -> list[int]:
    """The Moebius function mu(d) at index d, for d <= top."""
    mu = [1] * (top + 1)
    composite = bytearray(top + 1)
    for p in range(2, top + 1):
        if not composite[p]:
            composite[p::p] = b"\1" * len(range(p, top + 1, p))
            mu[p::p] = [-x for x in mu[p::p]]
            mu[p * p :: p * p] = [0] * len(range(p * p, top + 1, p * p))
    return mu


def _reduced_count(low: Fraction, high: Fraction, max_num: int, max_den: int) -> int:
    """How many reduced p/q in [low, high], 0 < low, have p <= max_num and
    q <= max_den; when both bounds exceed ``_SIEVE_LIMIT``, a lower bound.

    Moebius inversion over the common divisor d of p and q, summed over the
    shorter side: p/q lies in [low, high] iff q/p lies in [1/high, 1/low],
    so the bounds are swapped to make max_den the smaller, and it is cut to
    ``_SIEVE_LIMIT``. With S(x, y) the pairs (p, q), p <= x and q <= y, in
    range, the count is the sum of mu(d) * S(max_num // d, max_den // d)
    for d <= max_den. Each S takes constant time from prefix sums over q of
    floor(high*q) and ceil(low*q), the numerators' range at q before the
    cut at x.
    """
    if max_num < max_den:
        low, high, max_num, max_den = 1 / high, 1 / low, max_den, max_num
    max_den = min(max_den, _SIEVE_LIMIT)
    ln, ld, hn, hd = low.numerator, low.denominator, high.numerator, high.denominator
    floors, ceils = [0], [0]
    for q in range(1, max_den + 1):
        floors.append(floors[-1] + hn * q // hd)
        ceils.append(ceils[-1] - (-ln * q // ld))

    def pairs(x: int, y: int) -> int:
        # up to q = free, floor(high*q) <= x; up to q = cut, ceil(low*q) <= x
        free = min(y, ((x + 1) * hd - 1) // hn)
        cut = min(y, x * ld // ln)
        found = floors[free] - ceils[free] + free
        if cut > free:
            found += (x + 1) * (cut - free) - (ceils[cut] - ceils[free])
        return found

    mu = _mobius(max_den)
    return sum(mu[d] * pairs(max_num // d, max_den // d) for d in range(1, max_den + 1) if mu[d])


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
    return _table(folded, contextual, complementary, table.generator)
