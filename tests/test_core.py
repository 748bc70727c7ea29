import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from toneset import (
    FrequencySet,
    ParseError,
    cents,
    format_ratio,
    gcd_set,
    harmonic_set,
    parse_ratio,
    rational_gcd,
    rational_lcm,
    to_ratio,
    total_period,
    transpose,
)
from toneset.core import MAX_DECIMAL_EXPONENT, MAX_HARMONIC_PARTIALS, _display_score

ratios = st.fractions(min_value=F(1, 30), max_value=F(50), max_denominator=30)
freq_sets = st.sets(ratios, min_size=1, max_size=6).map(FrequencySet)


def brute_force_gcd(freqs):
    """Independent oracle: largest d = min/k dividing every element exactly."""
    smallest = min(freqs)
    for k in range(1, 10_000):
        d = smallest / k
        if all((f / d).denominator == 1 for f in freqs):
            return d
    raise AssertionError("oracle exhausted")


def brute_force_lcm_of_periods(freqs):
    """Independent oracle: smallest multiple of the longest period that every
    other period divides."""
    periods = [1 / f for f in freqs]
    longest = max(periods)
    for m in range(1, 10_000):
        candidate = m * longest
        if all((candidate / p).denominator == 1 for p in periods):
            return candidate
    raise AssertionError("oracle exhausted")


class TestParseRatio:
    def test_fraction_text(self):
        assert parse_ratio("3/2") == F(3, 2)

    def test_decimal_text_is_exact(self):
        assert parse_ratio("2.76") == F(69, 25)

    def test_integer_text(self):
        assert parse_ratio("440") == F(440)

    @pytest.mark.parametrize("bad", ["", "x", "3//2", "3/0", "1/2/3"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            parse_ratio(bad)

    @pytest.mark.parametrize("text", ["1e4300", "1E-4300", "2.5e+4_300", "1e0004300"])
    def test_exponents_up_to_the_cap(self, text):
        value = parse_ratio(text)
        assert value == F(text)
        assert max(value.numerator, value.denominator) >= 10**MAX_DECIMAL_EXPONENT

    @pytest.mark.parametrize(
        "text", ["1e4301", "1e-4301", "1e4_301", "1e10000000", "1e" + "9" * 5000]
    )
    def test_exponents_beyond_the_cap_rejected(self, text):
        with pytest.raises(ParseError, match="decimal exponent beyond"):
            parse_ratio(text)

    def test_to_ratio_rejects_floats(self):
        with pytest.raises(TypeError):
            to_ratio(2.76)

    def test_format_round_trip(self):
        for value in (F(3, 2), F(5), F(-7, 3)):
            assert parse_ratio(format_ratio(value)) == value
            assert parse_ratio(format_ratio(value, always_slash=True)) == value


class TestGcdSet:
    def test_phantom_fundamental(self):
        assert gcd_set(FrequencySet([440, 550])) == 110

    def test_integer_triple(self):
        assert gcd_set(FrequencySet([10, 6, 4])) == 2

    def test_rational_elements(self):
        # 3/2 = 2*(3/4) and 9/4 = 3*(3/4); no larger divisor works
        assert gcd_set(FrequencySet([F(3, 2), F(9, 4)])) == F(3, 4)

    @pytest.mark.parametrize(
        "freqs",
        [[440, 550], [10, 6, 4], [F(3, 2), F(9, 4)], [F(69, 25), F(541, 100), 7]],
    )
    def test_matches_brute_force(self, freqs):
        assert gcd_set(FrequencySet(freqs)) == brute_force_gcd([F(x) for x in freqs])

    def test_empty_set_error(self):
        with pytest.raises(ValueError, match="empty frequency set"):
            gcd_set(FrequencySet())

    def test_pairwise_helpers(self):
        assert rational_gcd(F(3, 2), F(9, 4)) == F(3, 4)
        assert rational_lcm(F(1, 440), F(1, 550)) == F(1, 110)


class TestTotalPeriod:
    def test_harmonic_sound(self):
        assert total_period(harmonic_set(110, 4)) == F(1, 110)

    def test_single_partial(self):
        assert total_period(FrequencySet([F(523)])) == F(1, 523)

    def test_agrees_with_lcm_of_periods(self):
        fs = FrequencySet([440, 550])
        assert total_period(fs) == F(1, 110)
        assert total_period(fs) == brute_force_lcm_of_periods(list(fs))


class TestTranspose:
    def test_octave_up(self):
        assert transpose(FrequencySet([1, 2, 3]), 2) == FrequencySet([2, 4, 6])

    def test_identity(self):
        fs = FrequencySet([262, 393])
        assert transpose(fs, 1) == fs

    def test_fifth_of_c4(self):
        got = transpose(harmonic_set(262, 6), F(3, 2))
        assert got == FrequencySet([393, 786, 1179, 1572, 1965, 2358])

    def test_operator_forms(self):
        fs = FrequencySet([1, 2, 3])
        assert F(2) * fs == fs * F(2) == fs.transpose(2)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            FrequencySet([1]).transpose(0)


class TestHarmonicSet:
    def test_four_partials(self):
        assert harmonic_set(110, 4) == FrequencySet([110, 220, 330, 440])

    def test_single_partial(self):
        assert harmonic_set(262, 1) == FrequencySet([262])

    def test_six_partials(self):
        assert harmonic_set(262, 6) == FrequencySet([262, 524, 786, 1048, 1310, 1572])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            harmonic_set(262, 0)

    def test_fundamental_recovered(self):
        assert gcd_set(harmonic_set(F(69, 25), 7)) == F(69, 25)

    def test_count_above_cap_rejected(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            harmonic_set(262, MAX_HARMONIC_PARTIALS + 1)


class TestDisplayScore:
    @pytest.mark.parametrize(
        "value, shown",
        [
            (F(0), 0.0),
            (F(1), 1.0),
            (F(1, 3), 0.333),
            (F(1, 2000), 0.001),  # at the threshold: rounded
            (F(1, 2001), 1 / 2001),  # would round to 0: kept unrounded
            (F(11, 3478225), 11 / 3478225),
            (F(1, 25 * 10**398), "4.000e-400"),  # float() underflows to 0
        ],
    )
    def test_display_rule(self, value, shown):
        assert _display_score(value) == shown


class TestRatioText:
    def test_printable_ratio(self):
        assert format_ratio(F(3, 2), True, "total") == "3/2" == format_ratio(F(3, 2), always_slash=True)

    @pytest.mark.parametrize(
        "numerator, denominator",
        [(1, 10**4300), (1, 10**4301 - 1), (10**5000 + 7, 3), (3, 2**20000), (7 * 10**4400, 10**4400 + 1)],
        ids=["10^4300", "10^4301-1", "numerator", "2^20000", "both"],
    )
    def test_too_long_names_the_value_and_its_digits(self, numerator, denominator):
        value = F(numerator, denominator)
        limit = sys.get_int_max_str_digits()
        term, longer = max(("numerator", value.numerator), ("denominator", value.denominator),
                           key=lambda pair: pair[1])
        sys.set_int_max_str_digits(0)
        try:
            digits = len(str(longer))
        finally:
            sys.set_int_max_str_digits(limit)
        with pytest.raises(ValueError) as raised:
            format_ratio(value, True, "harmonicity")
        assert str(raised.value) == (
            f"harmonicity is too long to print: its {term} has {digits} digits, "
            f"more than the limit of {limit}"
        )


class TestCents:
    def test_octave(self):
        assert cents(F(2)) == 1200.0

    def test_fourth(self):
        assert math.isclose(cents(F(4, 3)), 498.045, abs_tol=5e-4)

    def test_major_third(self):
        assert math.isclose(cents(F(5, 4)), 386.3137, abs_tol=5e-5)

    def test_tiny_ratio_does_not_underflow(self):
        assert cents(F(1, 10**400)) < -1_000_000


class TestSetSemantics:
    def test_sorted_dedup(self):
        fs = FrequencySet(["3/2", "3/2", 1, "0.5"])
        assert fs.elements == (F(1, 2), F(1), F(3, 2))

    def test_union_and_intersection(self):
        a = FrequencySet([1, 2, 3])
        b = FrequencySet([3, 4])
        assert (a | b) == FrequencySet([1, 2, 3, 4])
        assert (a & b) == FrequencySet([3])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            FrequencySet([0])
        with pytest.raises(ValueError):
            FrequencySet([F(-1, 2)])

    def test_contains(self):
        fs = FrequencySet([F(3, 2)])
        assert "3/2" in fs
        assert 2 not in fs


class TestInvariants:
    @given(freq_sets, ratios)
    def test_gcd_scales_with_transposition(self, fs, t):
        assert gcd_set(transpose(fs, t)) == t * gcd_set(fs)

    @given(freq_sets, ratios)
    def test_transposed_caches_match_a_fresh_set(self, fs, t):
        # transpose carries the fundamental and multipliers instead of
        # recomputing them; a set built from the same elements recomputes both
        moved = transpose(fs, t)
        fresh = FrequencySet(moved.elements)
        assert moved._lattice_view() == fresh._lattice_view()

    @given(freq_sets)
    def test_lattice_view_rebuilds_the_set(self, fs):
        fundamental, multipliers, multiplier_set = fs._lattice_view()
        assert tuple(fundamental * n for n in multipliers) == fs.elements
        assert math.gcd(*multipliers) == 1
        assert multiplier_set == frozenset(multipliers)

    def test_harmonic_set_lattice(self):
        assert harmonic_set(262, 4)._lattice_view() == FrequencySet([262, 524, 786, 1048])._lattice_view()

    @given(freq_sets)
    def test_elements_are_integer_multiples_of_gcd(self, fs):
        g = gcd_set(fs)
        assert all((f / g).denominator == 1 and f / g >= 1 for f in fs)

    @given(freq_sets, ratios, ratios)
    def test_transpose_composes(self, fs, a, b):
        assert transpose(transpose(fs, a), b) == transpose(fs, a * b)

    @given(freq_sets)
    def test_transpose_identity(self, fs):
        assert transpose(fs, 1) == fs
