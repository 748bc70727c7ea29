"""Tuning generation from consonance measures.

Three generators, each producing a table of (interval, consonance) pairs for
a contextual set F and a complementary set F' that is transposed against it:

* affinitive - every pairwise frequency ratio f/f'. These are exactly the
  transpositions with nonzero affinity, so the table is finite.
* harmonic - all reduced rationals within enumeration bounds whose
  union-harmonicity clears a threshold h. Rich for sparse spectra. For
  h = 0 it needs its bounds (defaults: +-3 octaves, denominators up to
  60); for h > 0 every interval that clears h already lies in a finite
  rectangle.
* superset - affinitive intervals of the harmonic supersets of F and F',
  scored on the original sets. Contains the affinitive table (its entries
  with nonzero affinity) and never misses a high-harmonicity interval.

Every table is made by one function, ``_scored``, in one coordinate
system. With F = a*N and G = b*M (fundamentals a, b, integer multipliers),
a generator hands it each transposition t as (p, q, n, d): the ascending
reduced integer pair p/q = t*b/a, and t = n/d in lowest terms, reduced
once by whichever side holds it. ``_scored`` is the one place where the
overlap of F and tF', the threshold test and the score are computed, on
those integers; a kept candidate becomes a row (n, d, terms) of a
``TuningTable``, terms the integers of its affinity and harmonicity. The
generators differ only in their pairs: the affinitive pairs are sorted by
``_ascending``, the others come from one Farey walk, ``_walk``, which
refuses more than ``MAX_TABLE_ENTRIES`` candidates before the first, and
``octave_reduce`` folds a table's rows on integers. The README design
notes give each generator's pairs, the rectangle that bounds h > 0, the
cap, and who builds what ("Tables are integer rows, and a row is its
interval"). The public consonance functions compute the same Fractions
from the sets themselves and are the oracle the tests compare against.

Octave reduction folds intervals into [1, 2) and rescores them from scratch;
consonance is not preserved by octave transposition (4/5 folds to 8/5, which
shares no partials with a six-partial context), so carried-over scores would
be wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import islice, pairwise
from typing import Iterable, Iterator, Sequence

from .consonance import ConsonanceScore, _superset_count
from .core import FrequencySet, RatioLike, _excerpt, format_ratio, to_ratio

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


@dataclass(frozen=True, slots=True)
class TuningEntry:
    interval: Fraction
    score: ConsonanceScore
    note: str | None = None  # note name, set only when a document is annotated


@dataclass(frozen=True)
class TuningTable:
    """Entries sorted by interval and the name of the generator that made
    them; the sets and parameters they came from are the document's
    metadata.

    A table holds its entries as rows ``(n, d, terms)``: each interval n/d
    in lowest terms, and its score as the integer terms (an, ad, hn, hd) of
    affinity an/ad and harmonicity hn/hd, not necessarily in lowest terms
    (README, "Tables are integer rows"). The constructor refuses intervals
    that do not strictly ascend or are not positive. A generated table has
    the rows alone and builds ``entries`` and ``intervals`` on first read,
    one ``ConsonanceScore`` per distinct terms object.
    """

    entries: tuple[TuningEntry, ...]
    generator: str

    def __post_init__(self) -> None:
        rows = _entry_rows(self.entries)
        _check_order(rows)
        self.__dict__["_rows"] = rows

    @classmethod
    def _of_rows(cls, rows: tuple, generator: str) -> "TuningTable":
        """A table of rows, its entries unbuilt; the caller vouches for their order."""
        table = object.__new__(cls)
        table.__dict__.update(generator=generator, _rows=rows)
        return table

    def __getattr__(self, name: str):
        # reached only while a table made from rows has not built its entries
        state = self.__dict__
        if name != "entries" or "_rows" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = state["_rows"]  # they hold every terms tuple, so no id is reused
        distinct = {id(terms): terms for _, _, terms in rows}
        scores = {
            key: ConsonanceScore(Fraction(an, ad), Fraction(hn, hd)) for key, (an, ad, hn, hd) in distinct.items()
        }
        entries = state["entries"] = tuple(TuningEntry(Fraction(n, d), scores[id(t)]) for n, d, t in rows)
        return entries

    @cached_property
    def intervals(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d, _ in self._rows)


_Terms = tuple[int, int, int, int]


def _terms(score: ConsonanceScore) -> _Terms:
    """A score as a row's terms: affinity and harmonicity as integer pairs."""
    return (*score.affinity.as_integer_ratio(), *score.harmonicity.as_integer_ratio())


def _entry_rows(entries: Iterable[TuningEntry]) -> tuple[tuple[int, int, _Terms], ...]:
    """Entries as the rows of a table, one terms object per score object."""
    entries = tuple(entries)  # holds every score, so no id is reused
    distinct = {id(e.score): e.score for e in entries}
    terms = {key: _terms(score) for key, score in distinct.items()}
    return tuple((e.interval.numerator, e.interval.denominator, terms[id(e.score)]) for e in entries)


def _check_order(rows: Sequence[tuple[int, int, _Terms]]) -> None:
    """Refuse rows that are not strictly increasing by p/q, or whose first
    p/q (and so every one, if the order holds) is not positive."""
    if any(c * b <= a * d for (a, b, _), (c, d, _) in pairwise(rows)):
        raise ValueError("tuning entries must be strictly increasing by interval")
    if rows and rows[0][0] <= 0:
        raise ValueError("interval must be positive")


def _scored(
    contextual: FrequencySet,
    complementary: FrequencySet,
    pairs: Iterable[tuple[int, int, int, int]],
    generator: str,
    threshold: Fraction = Fraction(0),
) -> TuningTable:
    """The table of every t whose harmonicity exceeds ``threshold`` (0 keeps
    every one), t given as (p, q, n, d): the reduced integer pair
    p/q = t*b/a, ascending, and t = n/d in lowest terms.

    Each score is ``total_consonance(F, G.transpose(t))`` for F = a*N and
    G = b*M (integer multipliers with gcd 1), computed without building tG:
    a*n = t*b*m iff n = p*k and m = q*k for some k, so the overlap is a
    count of integers; the union's gcd is a/q and its top partial
    a*max(N_top, p*M_top/q), so harmonicity = |F u tG| / top with
    top = max(q*N_top, p*M_top). The threshold test cross-multiplies
    integers, and runs first on the union's largest size |N| + |M|: a
    candidate that fails there is rejected before its overlap is counted.
    None is counted when p > N_top or q > M_top, as no k fits. A kept
    candidate becomes the row (n, d, terms), terms = (shared, min(|N|, |M|),
    |N| + |M| - shared, top); each distinct terms tuple is built once a
    call, and no Fraction, score or entry.
    """
    _, n_all, n_set = contextual._lattice_view()  # refuses empty sets
    _, m_all, m_set = complementary._lattice_view()
    hn, hd = threshold.numerator, threshold.denominator
    n_top, m_top = n_all[-1], m_all[-1]
    sizes = len(n_all) + len(m_all)
    room = sizes * hd
    smaller = min(len(n_all), len(m_all))
    # when k ranges further than the shorter multiplier list is long, walk
    # that list instead: m in M is shared iff q | m and p*m/q is in N
    # (symmetrically for n in N)
    by_m = len(m_all) <= len(n_all)
    shorter, longer_set = (m_all, n_set) if by_m else (n_all, m_set)
    # union = sizes - shared, so top alone determines a score with nothing
    # shared, and (shared, top) any other
    built: dict[int | tuple[int, int], _Terms] = {}
    rows = []
    append = rows.append
    for p, q, n, d in pairs:
        top, other = q * n_top, p * m_top
        if other > top:
            top = other
        if room <= hn * top:
            continue
        shared = 0
        if p <= n_top and q <= m_top:
            k_top, k_m = n_top // p, m_top // q
            if k_m < k_top:
                k_top = k_m
            if k_top <= smaller:
                for k in range(1, k_top + 1):
                    if p * k in n_set and q * k in m_set:
                        shared += 1
            else:
                div, mul = (q, p) if by_m else (p, q)
                for x in shorter:
                    if x % div == 0 and x // div * mul in longer_set:
                        shared += 1
        if shared:
            if (sizes - shared) * hd <= hn * top:
                continue
            key = (shared, top)
        else:
            key = top
        terms = built.get(key)
        if terms is None:
            terms = built[key] = (shared, smaller, sizes - shared, top)
        append((n, d, terms))
    # the pairs ascend, and t = p*a/(q*b) with them
    return TuningTable._of_rows(tuple(rows), generator)


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
    """One scored entry per affinitive interval; more than
    ``MAX_TABLE_ENTRIES`` partial pairs are refused before any is built."""
    _, n_all, _ = contextual._lattice_view()  # refuses empty sets
    _, m_all, _ = complementary._lattice_view()
    count = len(n_all) * len(m_all)
    if count > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"{format_ratio(count, label='candidate count')} candidate intervals f/f' from "
            f"{format_ratio(len(n_all))} x {format_ratio(len(m_all))} partials exceed the limit "
            f"of {MAX_TABLE_ENTRIES}"
        )
    gcd = math.gcd
    pairs = {(n // g, m // g) for n in n_all for m in m_all for g in (gcd(n, m),)}
    pairs = _scaled(_ascending(pairs, m_all[-1]), *_quotient(contextual, complementary))
    return _scored(contextual, complementary, pairs, "affinitive")


def _quotient(x: FrequencySet, y: FrequencySet) -> tuple[int, int]:
    """The ratio of the fundamentals of x and y in lowest terms, as integers;
    empty sets are refused."""
    a, b = x.fundamental(), y.fundamental()
    n, d = a.numerator * b.denominator, a.denominator * b.numerator
    g = math.gcd(n, d)
    return n // g, d // g


def _scaled(pairs: Iterable[tuple[int, int]], rn: int, rd: int) -> Iterator[tuple[int, int, int, int]]:
    """Each reduced x/y as (x, y, u, v), u/v = x*rn/(y*rd) in lowest terms
    for rn/rd in lowest terms: reduced by g1 = gcd(x, rd) and g2 = gcd(y, rn)
    alone, as x/y is in lowest terms too."""
    if rn == rd:
        return ((x, y, x, y) for x, y in pairs)
    gcd = math.gcd
    return (
        (x, y, x // g1 * (rn // g2), y // g2 * (rd // g1))
        for x, y in pairs
        for g1, g2 in ((gcd(x, rd), gcd(y, rn)),)
    )


def _ascending(pairs: Iterable[tuple[int, int]], max_den: int) -> list[tuple[int, int]]:
    """Distinct reduced pairs p/q with q <= max_den, sorted by value.

    Such fractions differ by at least 1/max_den^2 > 2^-shift, so the
    integer key floor(p*2^shift/q) orders them exactly.
    """
    shift = 2 * max_den.bit_length()
    return sorted(pairs, key=lambda pq: (pq[0] << shift) // pq[1])


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
            f"invalid range [{_excerpt(format_ratio(low, label='lo'))}, "
            f"{_excerpt(format_ratio(high, label='hi'))}]"
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
    if max_num * max_den > MAX_TABLE_ENTRIES and _walk_bound(low, high, max_den) > MAX_TABLE_ENTRIES:
        partial = min(max_num, max_den) > _SIEVE_LIMIT
        count = _reduced_count(low, high, max_num, max_den)
        if partial and count <= MAX_TABLE_ENTRIES:
            count = sum(1 for _ in islice(_farey_walk(*walk), MAX_TABLE_ENTRIES + 1))
        if count > MAX_TABLE_ENTRIES:
            count, low, high, max_num, max_den = (
                _excerpt(format_ratio(x, label=label))
                for x, label in ((count, "candidate count"), (low, "lower bound"),
                                 (high, "upper bound"), (max_num, "numerator bound"),
                                 (max_den, "denominator bound"))
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
    when its area is below the bounded walk's cheap bound (README, "For
    h > 0 the harmonic generator needs no bounds").
    """
    threshold = to_ratio(h)
    if not 0 <= threshold < 1:
        raise ValueError("harmonicity threshold h must lie in [0, 1)")
    # the scorer takes t as p/q = t*b/a, with b/a = rn/rd
    rn, rd = _quotient(complementary, contextual)
    low, high = _checked_range(lo, hi, max_den)
    gcd = math.gcd
    sides = threshold and _rectangle_sides(contextual, complementary, threshold)
    if sides and sides[0] * sides[1] < _walk_bound(low, high, max_den):
        # t = p*rd/(q*rn) rises with p/q; one whose denominator exceeds
        # max_den is skipped unscored
        walk = _walk(low * rn / rd, high * rn / rd, *sides)
        pairs = (
            (p, q, p * rd // g, d)
            for p, q in walk
            for g in (gcd(p * rd, q * rn),)
            for d in (q * rn // g,)
            if d <= max_den
        )
    else:
        walk = _walk(low, high, high.numerator * max_den // high.denominator, max_den)
        pairs = ((c * rn // g, d * rd // g, c, d) for c, d in walk for g in (gcd(c * rn, d * rd),))
    return _scored(contextual, complementary, pairs, "harmonic", threshold)


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
    # are (a/b)*p/q over the reduced p/q with p <= k and q <= kk; their
    # fundamentals are the originals', so p/q is already the t*b/a scored
    k, kk = _superset_count(contextual, n), _superset_count(complementary, m)
    walk = _scaled(_walk(Fraction(1, kk), Fraction(k), k, kk), *_quotient(contextual, complementary))
    return _scored(contextual, complementary, walk, "superset")


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
    # dividing by 2 to the gap in bit lengths lands in (1/2, 2)
    t /= Fraction(2) ** (t.numerator.bit_length() - t.denominator.bit_length())
    return t if t >= 1 else 2 * t


def octave_reduce(
    table: TuningTable,
    contextual: FrequencySet,
    complementary: FrequencySet,
) -> TuningTable:
    """Fold every interval into [1, 2), deduplicate, and rescore.

    Scores are recomputed against the source sets rather than carried over:
    an interval and its octave transposition generally have different
    consonance. Each row's n/d is folded as ``fold_to_octave`` folds it, on
    integers: shifted by the gap in bit lengths into (1/2, 2), doubled
    below 1, and reduced by one gcd, which takes out the power of 2 alone.
    """
    gcd = math.gcd
    folded = set()
    for n, d, _ in table._rows:
        gap = n.bit_length() - d.bit_length()
        if gap > 0:
            d <<= gap
        else:
            n <<= -gap
        if n < d:
            n <<= 1
        g = gcd(n, d)
        folded.add((n // g, d // g))
    # each as t*b/a = n*rn/(d*rd) for rn/rd = b/a
    folded = _ascending(folded, max((d for _, d in folded), default=1))
    scaled = _scaled(folded, *_quotient(complementary, contextual))
    return _scored(contextual, complementary, ((p, q, n, d) for n, d, p, q in scaled), table.generator)
