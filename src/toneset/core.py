"""Frequency sets over exact rational arithmetic.

A sound is modelled as a finite set of partial frequencies in Hz, held as
its fundamental a times its integer multipliers N (F = a*N, the view every
generator works in); its sorted elements are built on first use. All
frequencies and intervals are ``fractions.Fraction`` values, so set algebra,
common fundamentals and wave periods come out exact. Floating point appears
only at the display edge (``cents`` here, score display in
:mod:`toneset.document`) and in the roughness model
(:mod:`toneset.dissonance`); it never feeds back into the rational layer.
Tiny deviations from exact ratios collapse the common fundamental, so binary
floats are rejected rather than silently converted: pass decimals as
strings ("2.76") to keep them exact. Ratio text has one reader,
``_ratio_terms``, and a set is built from its values' integer terms
(README, "Sets and names from text are built on integers").

Everything here is an immutable value; all operations are pure functions and
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Ratio",
    "ParseError",
    "parse_ratio",
    "format_ratio",
    "to_ratio",
    "rational_gcd",
    "rational_lcm",
    "cents",
    "FrequencySet",
    "gcd_set",
    "total_period",
    "transpose",
    "harmonic_set",
    "format_set",
]

# Largest partial count of a harmonic set. Counts above it are refused before
# anything is allocated; the largest in use is 1,865, the harmonic superset of
# the two-decimal inharmonic spectrum (fig5_4).
MAX_HARMONIC_PARTIALS = 2**20

# Largest decimal exponent magnitude ``parse_ratio`` accepts: Python's default
# limit on the digits of an int converted from text, which already caps the
# mantissa. Fraction("1e3000000") alone spends seconds building 10**3000000.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT_RE = re.compile(r"e[-+]?([\d_]*)$", re.IGNORECASE)

# Frequencies, intervals and consonance scores all share one scalar type.
Ratio = Fraction
RatioLike = Union[Fraction, int, str]


class ParseError(ValueError):
    """Raised when rational, note or set notation cannot be parsed."""


def parse_ratio(text: str) -> Fraction:
    """Parse "p/q" or decimal text ("3/2", "440", "2.76") to an exact ratio.

    Decimal strings convert exactly (2.76 becomes 69/25), never through a
    binary float. Exponents beyond ``MAX_DECIMAL_EXPONENT`` are refused.
    """
    return Fraction(*_ratio_terms(text))


def _ratio_terms(text: str) -> tuple[int, int]:
    """The one ratio reader: numerator and denominator, in lowest terms, of
    the ratio ``text`` denotes. Plain ASCII digits "n", "n/d" or "i.f", the
    forms every document and most sets write, go through ``int()`` and one
    gcd, each digit run read on its own as ``Fraction`` reads it; any other
    text through ``Fraction``. Both refuse alike, with a ParseError."""
    token = text.strip()
    num, slash, den = token.partition("/")
    if slash:
        plain = num.isascii() and num.isdigit() and den.isascii() and den.isdigit()
    else:
        num, _, places = num.partition(".")
        digits = num + places
        plain = digits.isascii() and digits.isdigit()
    exponent = None if plain else _EXPONENT_RE.search(token)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ParseError(
                f"cannot parse ratio {_excerpt(token)!r}: decimal exponent beyond "
                f"+-{MAX_DECIMAL_EXPONENT}"
            )
    try:
        if not plain:
            return Fraction(token).as_integer_ratio()
        if slash:
            n, d = int(num), int(den)
        else:  # "i.f" is (i * 10**len(f) + f) / 10**len(f)
            d = 10 ** len(places)
            n = int(num or 0) * d + int(places or 0)
        g = math.gcd(n, d) if d else 0  # n/0 divides by zero below
        return n // g, d // g
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"cannot parse ratio {_excerpt(token)!r} (expected 'p/q' or a decimal)"
        ) from None


def _excerpt(text: str) -> str:
    """``text`` as a refusal quotes it: past 32 characters, its first 29 and "..."."""
    return text if len(text) <= 32 else text[:29] + "..."


def format_ratio(value: Fraction, always_slash: bool = False, label: str = "ratio") -> str:
    """Render a ratio as "p/q", or bare "p" for integers unless forced.

    A term with more digits than Python converts to text
    (``sys.get_int_max_str_digits()``, 4,300 by default) raises a ValueError
    that names ``label`` and the term's digit count.
    """
    return _ratio_text(value.numerator, value.denominator, always_slash, label)


def _ratio_text(numerator: int, denominator: int, always_slash: bool = False, label: str = "ratio") -> str:
    """:func:`format_ratio` of numerator/denominator, given in lowest terms,
    without building the Fraction."""
    try:
        if always_slash or denominator != 1:
            return f"{numerator}/{denominator}"
        return str(numerator)
    except ValueError:
        term, n = max(("numerator", abs(numerator)), ("denominator", denominator),
                      key=lambda pair: pair[1])
        digits = int(n.bit_length() * math.log10(2)) + 1  # the count, or one above it
        if n < 10 ** (digits - 1):
            digits -= 1
        whose = f"its {term}" if always_slash or denominator != 1 else "it"
        raise ValueError(
            f"{label} is too long to print: {whose} has {digits} digits, more than "
            f"the limit of {sys.get_int_max_str_digits()}"
        ) from None


def _scientific(value: Fraction) -> str:
    """Render a ratio as "d.ddde+XX", like ``f"{x:.3e}"``, with integer
    arithmetic only, so a value beyond the float range keeps its magnitude
    instead of reading 0 or overflowing."""
    if value == 0:
        return "0.000e+00"
    sign, value = ("-" if value < 0 else ""), abs(value)
    # the bit lengths place the decimal exponent within one of its true value
    bits = value.numerator.bit_length() - value.denominator.bit_length()
    exponent = math.floor(bits * math.log10(2))
    while value < Fraction(10) ** exponent:
        exponent -= 1
    while value >= Fraction(10) ** (exponent + 1):
        exponent += 1
    digits = round(value * Fraction(10) ** (3 - exponent))
    if digits == 10_000:  # 9.9995... rounds up into the next decade
        digits, exponent = 1000, exponent + 1
    return f"{sign}{digits // 1000}.{digits % 1000:03d}e{exponent:+03d}"


def to_ratio(value: RatioLike) -> Fraction:
    """Coerce ints, strings and Fractions to an exact ratio.

    Floats are refused: their binary rounding is exactly the kind of
    imprecision that destroys common fundamentals.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*_ratio_pair(value))


def _ratio_pair(value: RatioLike) -> tuple[int, int]:
    """:func:`to_ratio` of ``value`` as numerator and denominator in lowest
    terms, without building a Fraction for an int or a text."""
    if isinstance(value, (Fraction, int)):
        return value.numerator, value.denominator
    if isinstance(value, str):
        return _ratio_terms(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass it as a string (e.g. '2.76') to stay exact"
        )
    raise TypeError(f"cannot interpret {value!r} as a ratio")


def rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Greatest common divisor of two rationals.

    The unique largest rational dividing both a and b a whole number of
    times: gcd of the numerators over lcm of the denominators.
    """
    return Fraction(
        math.gcd(a.numerator, b.numerator),
        math.lcm(a.denominator, b.denominator),
    )


def rational_lcm(a: Fraction, b: Fraction) -> Fraction:
    """Least common multiple of two rationals (dual of :func:`rational_gcd`)."""
    return Fraction(
        math.lcm(a.numerator, b.numerator),
        math.gcd(a.denominator, b.denominator),
    )


def cents(interval: Union[RatioLike, float]) -> float:
    """Interval size in cents, 1200 per octave. Display-only: never exact."""
    if isinstance(interval, float):
        if interval <= 0:
            raise ValueError("interval must be positive")
        return 1200.0 * math.log2(interval)
    value = to_ratio(interval)
    if value <= 0:
        raise ValueError("interval must be positive")
    return _cents_of(value.numerator, value.denominator)


def _cents_of(numerator: int, denominator: int) -> float:
    """:func:`cents` of numerator/denominator, both positive."""
    # log of numerator and denominator separately survives huge ratios that
    # would overflow or underflow a single float conversion
    return 1200.0 * (math.log2(numerator) - math.log2(denominator))


class FrequencySet:
    """Finite set of positive rational frequencies in Hz, held as ``a * N``.

    ``a`` is the gcd of the elements and ``N`` their ascending integer
    multipliers (gcd 1), also kept as a frozenset. The form is canonical, so
    equality and hashing compare ``(a, N)``, and transposition scales ``a``
    alone; the sorted elements are built on first use. Supports union,
    intersection, transposition by a rational interval (``t * fs`` or
    ``fs.transpose(t)``), the common fundamental and the summed wave's period.
    """

    __slots__ = ("_fundamental", "_multipliers", "_multiplier_set", "_freqs", "_element_set")

    def __init__(self, frequencies: Iterable[RatioLike] = ()):
        # each value as n/d in lowest terms, d > 0: texts and ints build no Fraction
        pairs = list(map(_ratio_pair, frequencies))
        nums, dens = zip(*pairs) if pairs else ((), ())
        if nums and min(nums) <= 0:
            smallest = min(Fraction(n, d) for n, d in pairs)
            raise ValueError(f"non-positive frequency {_excerpt(format_ratio(smallest, label='frequency'))}")
        # gcd of reduced numerators over lcm of denominators is already in
        # lowest terms: a prime of the gcd divides no denominator (0 if empty)
        g, lcm = math.gcd(*nums), math.lcm(*dens)
        multiplier_set = frozenset([n // g * (lcm // d) for n, d in pairs])
        self._fundamental, self._multipliers = Fraction(g, lcm), tuple(sorted(multiplier_set))
        self._multiplier_set = multiplier_set
        self._freqs: tuple[Fraction, ...] | None = None
        self._element_set: frozenset[Fraction] | None = None

    @classmethod
    def _lattice(
        cls, a: Fraction, multipliers: tuple[int, ...], multiplier_set: frozenset[int]
    ) -> "FrequencySet":
        # internal: the set a * multipliers (ascending, positive, gcd 1)
        obj = cls.__new__(cls)
        obj._fundamental, obj._multipliers, obj._multiplier_set = a, multipliers, multiplier_set
        obj._freqs = obj._element_set = None
        return obj

    @classmethod
    def harmonic(cls, fundamental: RatioLike, count: int) -> "FrequencySet":
        """The first ``count`` integer multiples of ``fundamental``."""
        base = to_ratio(fundamental)
        if base.numerator <= 0:
            raise ValueError("fundamental must be positive")
        multipliers = tuple(range(1, _checked_count(count) + 1))
        return cls._lattice(base, multipliers, frozenset(multipliers))

    @property
    def elements(self) -> tuple[Fraction, ...]:
        if self._freqs is None:
            num, den = self._fundamental.numerator, self._fundamental.denominator
            self._freqs = tuple(Fraction(num * n, den) for n in self._multipliers)
        return self._freqs

    def element_set(self) -> frozenset[Fraction]:
        if self._element_set is None:
            self._element_set = frozenset(self.elements)
        return self._element_set

    def __len__(self) -> int:
        return len(self._multipliers)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elements)

    def __bool__(self) -> bool:
        return bool(self._multipliers)

    def __contains__(self, value: RatioLike) -> bool:
        return to_ratio(value) in self.element_set()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return self._fundamental == other._fundamental and self._multipliers == other._multipliers

    def __hash__(self) -> int:
        return hash((self._fundamental, self._multipliers))

    def __repr__(self) -> str:
        return f"FrequencySet({format_set(self)})"

    def __or__(self, other: "FrequencySet") -> "FrequencySet":
        return _union((self, other))

    def __and__(self, other: "FrequencySet") -> "FrequencySet":
        return FrequencySet(self.element_set() & other.element_set())

    def union(self, other: "FrequencySet") -> "FrequencySet":
        return self | other

    def intersection(self, other: "FrequencySet") -> "FrequencySet":
        return self & other

    def transpose(self, interval: RatioLike) -> "FrequencySet":
        """Multiply every frequency by a positive rational interval: the
        fundamental scales by it and the multipliers stay."""
        t = to_ratio(interval)
        if t <= 0:
            raise ValueError("transposition interval must be positive")
        if not self:
            return self
        return FrequencySet._lattice(t * self._fundamental, self._multipliers, self._multiplier_set)

    def __mul__(self, interval: RatioLike) -> "FrequencySet":
        return self.transpose(interval)

    __rmul__ = __mul__

    def fundamental(self) -> Fraction:
        """Greatest common divisor of the elements.

        Every frequency in the set is an integer multiple of this value; it
        need not itself belong to the set.
        """
        if not self:
            raise ValueError("empty frequency set")
        return self._fundamental

    def _lattice_view(self) -> tuple[Fraction, tuple[int, ...], frozenset[int]]:
        """The set as ``a``, ``N`` and ``N`` as a frozenset, for scoring
        with integer arithmetic instead of building sets."""
        return self.fundamental(), self._multipliers, self._multiplier_set

    def total_period(self) -> Fraction:
        """Period in seconds of the summed wave: 1 / fundamental.

        Equals the lcm of the individual partial periods.
        """
        return 1 / self.fundamental()


def _union(sets: Sequence[FrequencySet], pairs: Sequence[tuple[int, int]] = ()) -> FrequencySet:
    """The union of ``sets`` and of the one-value sets {n/d} of ``pairs``
    (n/d > 0 in lowest terms) in one pass: one gcd, one lcm, one frozenset
    and one sort, however many sets. An empty set adds nothing, and a union
    with one nonempty set and no pair is that set (the first set when all
    are empty)."""
    nonempty = [s for s in sets if s._multipliers]
    if len(nonempty) < 2 and not pairs:
        return nonempty[0] if nonempty else sets[0]
    # with g = gcd of the fundamentals a_i, the union is g * (u (a_i/g)*N_i),
    # whose multipliers have gcd 1; a pair is the set (n/d)*{1}
    nums = [s._fundamental.numerator for s in nonempty] + [n for n, _ in pairs]
    dens = [s._fundamental.denominator for s in nonempty] + [d for _, d in pairs]
    gn, gd = math.gcd(*nums), math.lcm(*dens)
    merged = [n // gn * (gd // d) for n, d in pairs]
    for s, n, d in zip(nonempty, nums, dens):
        scale = n // gn * (gd // d)
        merged += [scale * m for m in s._multipliers]
    multiplier_set = frozenset(merged)
    return FrequencySet._lattice(Fraction(gn, gd), tuple(sorted(multiplier_set)), multiplier_set)


def _checked_count(count: int) -> int:
    """``count``, or a ValueError unless a harmonic set may have that many partials."""
    if count < 1:
        raise ValueError("partial count must be at least 1")
    if count > MAX_HARMONIC_PARTIALS:
        raise ValueError(
            f"partial count {_excerpt(format_ratio(count, label='partial count'))} exceeds the limit of "
            f"{MAX_HARMONIC_PARTIALS}"
        )
    return count


def _count_of(digits: str) -> int:
    """A partial count from decimal digits; one longer than the limit is
    refused before ``int()``, whose own refusal starts at 4,300 digits."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_HARMONIC_PARTIALS)):
        raise ValueError(f"partial count {_excerpt(digits)} exceeds the limit of {MAX_HARMONIC_PARTIALS}")
    return int(digits)


def gcd_set(freq_set: FrequencySet) -> Fraction:
    """Common fundamental of a frequency set (gcd of its elements)."""
    return freq_set.fundamental()


def total_period(freq_set: FrequencySet) -> Fraction:
    """Period in seconds of the set's summed wave."""
    return freq_set.total_period()


def transpose(freq_set: FrequencySet, interval: RatioLike) -> FrequencySet:
    """Transpose a set by a positive rational interval."""
    return freq_set.transpose(interval)


def harmonic_set(fundamental: RatioLike, count: int) -> FrequencySet:
    """Harmonic set: integer multiples 1..count of a fundamental."""
    return FrequencySet.harmonic(fundamental, count)


def format_set(freq_set: FrequencySet) -> str:
    """Compact display form, e.g. ``{262, 524, 786}``."""
    return "{" + ", ".join(format_ratio(f) for f in freq_set) + "}"
