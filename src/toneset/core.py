"""Frequency sets over exact rational arithmetic.

A sound is modelled as a finite set of partial frequencies in Hz. All
frequencies and intervals are ``fractions.Fraction`` values, so set algebra,
common fundamentals and wave periods come out exact regardless of how the
sets were built. Floating point appears only at the display edge (``cents``)
and in the roughness model (:mod:`toneset.dissonance`); it never feeds back
into the rational layer. Tiny deviations from exact ratios collapse the
common fundamental, so binary floats are rejected rather than silently
converted: pass decimals as strings ("2.76") to keep them exact.

Everything here is an immutable value; all operations are pure functions and
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Union

__all__ = [
    "Ratio",
    "RatioLike",
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
    token = text.strip()
    exponent = _EXPONENT_RE.search(token)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            shown = token if len(token) <= 32 else token[:29] + "..."
            raise ParseError(
                f"cannot parse ratio {shown!r}: decimal exponent beyond "
                f"+-{MAX_DECIMAL_EXPONENT}"
            )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"cannot parse ratio {token!r} (expected 'p/q' or a decimal)"
        ) from None


def format_ratio(value: Fraction, always_slash: bool = False, label: str = "ratio") -> str:
    """Render a ratio as "p/q", or bare "p" for integers unless forced.

    A term with more digits than Python converts to text
    (``sys.get_int_max_str_digits()``, 4,300 by default) raises a ValueError
    that names ``label`` and the term's digit count.
    """
    try:
        if always_slash or value.denominator != 1:
            return f"{value.numerator}/{value.denominator}"
        return str(value.numerator)
    except ValueError:
        term, n = max(("numerator", abs(value.numerator)), ("denominator", value.denominator),
                      key=lambda pair: pair[1])
        digits = int(n.bit_length() * math.log10(2)) + 1  # the count, or one above it
        if n < 10 ** (digits - 1):
            digits -= 1
        whose = f"its {term}" if always_slash or value.denominator != 1 else "it"
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


def _display_score(value: Fraction) -> float | str:
    """How a score is shown beside its exact ratio (JSON and text alike).

    A float rounded to 3 decimals; the unrounded float when rounding would
    show a nonzero score as 0; and the :func:`_scientific` text when even
    ``float()`` gives 0 for a nonzero score.
    """
    x = float(value)
    if x == 0.0 and value != 0:
        return _scientific(value)
    if x == 0.0 or abs(x) >= 0.0005:
        return round(x, 3)
    return x


def to_ratio(value: RatioLike) -> Fraction:
    """Coerce ints, strings and Fractions to an exact ratio.

    Floats are refused: their binary rounding is exactly the kind of
    imprecision that destroys common fundamentals.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_ratio(value)
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
    """Finite set of positive rational frequencies in Hz.

    Stored sorted ascending with duplicates removed. Supports the small
    algebra tuning work needs: union, intersection, transposition by a
    rational interval (``t * fs`` or ``fs.transpose(t)``), the common
    fundamental (gcd of the elements) and the period of the summed wave.
    """

    __slots__ = ("_freqs", "_element_set", "_fundamental", "_lattice")

    def __init__(self, frequencies: Iterable[RatioLike] = ()):
        freqs = sorted({to_ratio(f) for f in frequencies})
        if freqs and freqs[0] <= 0:
            raise ValueError(f"non-positive frequency {format_ratio(freqs[0], label='frequency')}")
        self._freqs: tuple[Fraction, ...] = tuple(freqs)
        # lazy caches; safe because the value is immutable
        self._element_set: frozenset[Fraction] | None = None
        self._fundamental: Fraction | None = None
        self._lattice: tuple[tuple[int, ...], frozenset[int]] | None = None

    @classmethod
    def _from_sorted(
        cls,
        freqs: tuple[Fraction, ...],
        fundamental: Fraction | None = None,
        lattice: tuple[tuple[int, ...], frozenset[int]] | None = None,
    ) -> "FrequencySet":
        # internal: caller guarantees sorted, deduplicated, positive elements,
        # and that any cache it passes is the one the elements would produce
        obj = cls.__new__(cls)
        obj._freqs = freqs
        obj._element_set = None
        obj._fundamental = fundamental
        obj._lattice = lattice
        return obj

    @classmethod
    def harmonic(cls, fundamental: RatioLike, count: int) -> "FrequencySet":
        """The first ``count`` integer multiples of ``fundamental``."""
        base = to_ratio(fundamental)
        if base <= 0:
            raise ValueError("fundamental must be positive")
        if count < 1:
            raise ValueError("partial count must be at least 1")
        if count > MAX_HARMONIC_PARTIALS:
            raise ValueError(
                f"partial count {format_ratio(count, label='partial count')} exceeds the limit of "
                f"{MAX_HARMONIC_PARTIALS}"
            )
        multipliers = tuple(range(1, count + 1))
        num, den = base.numerator, base.denominator
        return cls._from_sorted(
            tuple(Fraction(num * n, den) for n in multipliers),
            base,
            (multipliers, frozenset(multipliers)),
        )

    @property
    def elements(self) -> tuple[Fraction, ...]:
        return self._freqs

    def element_set(self) -> frozenset[Fraction]:
        if self._element_set is None:
            self._element_set = frozenset(self._freqs)
        return self._element_set

    def __len__(self) -> int:
        return len(self._freqs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._freqs)

    def __bool__(self) -> bool:
        return bool(self._freqs)

    def __contains__(self, value: RatioLike) -> bool:
        return to_ratio(value) in self.element_set()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return self._freqs == other._freqs

    def __hash__(self) -> int:
        return hash(self._freqs)

    def __repr__(self) -> str:
        return f"FrequencySet({format_set(self)})"

    def __or__(self, other: "FrequencySet") -> "FrequencySet":
        return FrequencySet(self._freqs + other._freqs)

    def __and__(self, other: "FrequencySet") -> "FrequencySet":
        return FrequencySet(self.element_set() & other.element_set())

    def union(self, other: "FrequencySet") -> "FrequencySet":
        return self | other

    def intersection(self, other: "FrequencySet") -> "FrequencySet":
        return self & other

    def transpose(self, interval: RatioLike) -> "FrequencySet":
        """Multiply every frequency by a positive rational interval."""
        t = to_ratio(interval)
        if t <= 0:
            raise ValueError("transposition interval must be positive")
        if not self._freqs:
            return self
        # multiplying distinct sorted values by t > 0 keeps them distinct
        # and sorted, so the canonical form survives without re-sorting; the
        # fundamental scales by t and the integer multipliers do not change
        fundamental, multipliers, multiplier_set = self._lattice_view()
        return FrequencySet._from_sorted(
            tuple(t * f for f in self._freqs),
            t * fundamental,
            (multipliers, multiplier_set),
        )

    def __mul__(self, interval: RatioLike) -> "FrequencySet":
        return self.transpose(interval)

    __rmul__ = __mul__

    def fundamental(self) -> Fraction:
        """Greatest common divisor of the elements.

        Every frequency in the set is an integer multiple of this value; it
        need not itself belong to the set.
        """
        if not self._freqs:
            raise ValueError("empty frequency set")
        if self._fundamental is None:
            # gcd of reduced numerators over lcm of denominators is already
            # in lowest terms: a prime of the gcd divides no denominator
            self._fundamental = Fraction(
                math.gcd(*(f.numerator for f in self._freqs)),
                math.lcm(*(f.denominator for f in self._freqs)),
            )
        return self._fundamental

    def _lattice_view(self) -> tuple[Fraction, tuple[int, ...], frozenset[int]]:
        """The set as ``fundamental * multipliers``.

        Returns the fundamental ``a``, the ascending integer multipliers
        ``n = f / a`` of the elements (their gcd is 1) and the same
        multipliers as a frozenset. Lets consonance code test partials for
        coincidence with integer arithmetic instead of building sets.
        """
        fundamental = self.fundamental()
        if self._lattice is None:
            num, den = fundamental.numerator, fundamental.denominator
            multipliers = tuple(
                f.numerator * den // (f.denominator * num) for f in self._freqs
            )
            self._lattice = (multipliers, frozenset(multipliers))
        return (fundamental, *self._lattice)

    def total_period(self) -> Fraction:
        """Period in seconds of the summed wave: 1 / fundamental.

        Equals the lcm of the individual partial periods.
        """
        return 1 / self.fundamental()


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
