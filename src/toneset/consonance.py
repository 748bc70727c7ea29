"""Consonance measures for frequency sets.

Two complementary exact quantities, both rationals in [0, 1]:

* affinity - the fraction of shared partials relative to the smaller set.
  Sounds with many coinciding partials interfere less, so this is the
  spectral-interference side of consonance.
* harmonicity - how completely the combined spectrum fills its minimal
  harmonic superset, i.e. how close it is to being a single virtual pitch.
  This is the periodicity side.

Total consonance is their arithmetic mean. For single-partial sounds the
total collapses to the modified Thomae value 1/max(p, q) of the interval
p/q between them, which ties consonance directly to ratio complexity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import FrequencySet, RatioLike, rational_gcd, to_ratio

__all__ = [
    "ConsonanceScore",
    "affinity",
    "harmonic_superset",
    "harmonicity",
    "total_consonance",
    "thomae_modified",
    "thomae_classical",
]


@dataclass(frozen=True)
class ConsonanceScore:
    """Affinity and harmonicity of a pair of sets, with their exact mean."""

    affinity: Fraction
    harmonicity: Fraction

    @property
    def total(self) -> Fraction:
        return (self.affinity + self.harmonicity) / 2


def _require_nonempty(*sets: FrequencySet) -> None:
    for fs in sets:
        if not fs:
            raise ValueError("empty frequency set")


def affinity(contextual: FrequencySet, complementary: FrequencySet) -> Fraction:
    """Shared fraction of partials: |F n G| / min(|F|, |G|).

    0 iff the sets are disjoint, 1 iff the smaller set is contained in the
    larger one.
    """
    _require_nonempty(contextual, complementary)
    shared = contextual.element_set() & complementary.element_set()
    return Fraction(len(shared), min(len(contextual), len(complementary)))


def harmonic_superset(freq_set: FrequencySet, extra: int = 0) -> FrequencySet:
    """Smallest harmonic set containing ``freq_set``, extended by ``extra``.

    With extra = 0 this is fundamental * {1..k} where k = max/fundamental;
    larger ``extra`` appends further partials above the set.
    """
    _require_nonempty(freq_set)
    if extra < 0:
        raise ValueError("extra partial count must be non-negative")
    base = freq_set.fundamental()
    k = max(freq_set.elements) / base
    assert k.denominator == 1  # every element is an integer multiple of the gcd
    return FrequencySet.harmonic(base, int(k) + extra)


def harmonicity(
    contextual: FrequencySet, complementary: FrequencySet | None = None
) -> Fraction:
    """Relative size of the union inside its minimal harmonic superset.

    gcd(U) * |U| / max(U) for U = F u G; the one-set form measures F against
    itself. Equals 1 exactly when the union is itself a harmonic set.
    """
    if complementary is None or complementary is contextual:
        _require_nonempty(contextual)
        return (
            contextual.fundamental() * len(contextual) / contextual.elements[-1]
        )
    _require_nonempty(contextual, complementary)
    # the union never needs materialising: gcd distributes over it and the
    # size follows from the overlap count
    shared = contextual.element_set() & complementary.element_set()
    union_size = len(contextual) + len(complementary) - len(shared)
    gcd = rational_gcd(contextual.fundamental(), complementary.fundamental())
    top = max(contextual.elements[-1], complementary.elements[-1])
    return gcd * union_size / top


def total_consonance(
    contextual: FrequencySet, complementary: FrequencySet
) -> ConsonanceScore:
    """Affinity and harmonicity of the pair, averaged exactly."""
    return ConsonanceScore(
        affinity=affinity(contextual, complementary),
        harmonicity=harmonicity(contextual, complementary),
    )


def _lattice_scorer(
    contextual: FrequencySet, complementary: FrequencySet, threshold: Fraction = Fraction(0)
) -> Callable[[int, int], ConsonanceScore | None]:
    """Exact scorer of ``contextual`` against transpositions of ``complementary``,
    taking each transposition t as the integers of t*b/a = p/q in lowest terms.

    With F = a*N and G = b*M (fundamentals a, b, integer multipliers N, M
    with gcd 1), the returned function maps coprime p, q > 0 to
    ``total_consonance(contextual, complementary.transpose(t))``, or to None
    when that pair's harmonicity does not exceed ``threshold``; it never
    builds the transposed set:

    * a*n equals t*b*m iff n*q = p*m, i.e. n = p*k and m = q*k for some k,
      so the overlap is a count of integers;
    * the union's gcd is gcd(a, a*p/q) = a/q and its top partial is
      a*max(N[-1], p*M[-1]/q), so harmonicity = |F u tG| / max(q*N[-1], p*M[-1]),
      free of a and b.

    The threshold test cross-multiplies integers, so rejected candidates
    build no Fraction. Every harmonicity is positive, so the default
    threshold 0 keeps every interval. Equal (shared, top) pairs give the
    same score object: each distinct score is built once per scorer, and
    the memo goes with the scorer.
    """
    _require_nonempty(contextual, complementary)
    _, n_all, n_set = contextual._lattice_view()
    _, m_all, m_set = complementary._lattice_view()
    hn, hd = threshold.numerator, threshold.denominator
    n_top, m_top = n_all[-1], m_all[-1]
    sizes = len(n_all) + len(m_all)
    smaller = min(len(n_all), len(m_all))
    # when k ranges further than the shorter multiplier list is long, walk
    # that list instead: m in M is shared iff q | m and p*m/q is in N
    # (symmetrically for n in N)
    if len(m_all) <= len(n_all):
        shorter, longer_set, by_m = m_all, n_set, True
    else:
        shorter, longer_set, by_m = n_all, m_set, False
    # union = sizes - shared, so (shared, top) determines the score
    built: dict[tuple[int, int], ConsonanceScore] = {}

    def score(p: int, q: int) -> ConsonanceScore | None:
        k_top = min(n_top // p, m_top // q)
        shared = 0
        if k_top <= smaller:
            for k in range(1, k_top + 1):
                if p * k in n_set and q * k in m_set:
                    shared += 1
        else:
            div, mul = (q, p) if by_m else (p, q)
            for x in shorter:
                if x % div == 0 and x // div * mul in longer_set:
                    shared += 1
        union = sizes - shared
        top = max(q * n_top, p * m_top)
        if union * hd <= hn * top:
            return None
        key = (shared, top)
        result = built.get(key)
        if result is None:
            result = built[key] = ConsonanceScore(Fraction(shared, smaller), Fraction(union, top))
        return result

    return score


def thomae_modified(interval: RatioLike) -> Fraction:
    """1 / max(p, q) for the reduced interval p/q.

    The consonance a bare interval earns from its ratio complexity alone:
    the perfect fifth 3/2 scores 1/3, the major third 5/4 scores 1/5.
    """
    t = to_ratio(interval)
    if t <= 0:
        raise ValueError("interval must be positive")
    return Fraction(1, max(t.numerator, t.denominator))


def thomae_classical(interval: RatioLike) -> Fraction:
    """Classical Thomae value 1/q for the reduced interval p/q."""
    t = to_ratio(interval)
    if t <= 0:
        raise ValueError("interval must be positive")
    return Fraction(1, t.denominator)
