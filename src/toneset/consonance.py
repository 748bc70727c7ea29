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

These functions compute from the sets themselves and are the oracle:
``tuning`` scores whole tables on integer multipliers instead, and the tests
compare its entries with ``total_consonance(F, F'.transpose(t))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import FrequencySet, RatioLike, _checked_count, rational_gcd, to_ratio

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
    return FrequencySet.harmonic(freq_set.fundamental(), _superset_count(freq_set, extra))


def _superset_count(freq_set: FrequencySet, extra: int) -> int:
    """The checked partial count of ``harmonic_superset``, without building it."""
    top = freq_set._lattice_view()[1][-1]  # refuses empty sets
    if extra < 0:
        raise ValueError("extra partial count must be non-negative")
    return _checked_count(top + extra)


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
