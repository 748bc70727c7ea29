import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

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
from toneset.core import MAX_DECIMAL_EXPONENT, MAX_HARMONIC_PARTIALS, _excerpt, _ratio_terms
from toneset.document import _display_score

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


def parsed_or_refusal(text):
    """``parse_ratio``'s value, or its refusal message."""
    try:
        return parse_ratio(text)
    except ParseError as exc:
        return str(exc)


def fraction_or_refusal(text):
    """The reference reader for text without an exponent: ``Fraction``
    reads the stripped text, and every failure is the one refusal."""
    token = text.strip()
    try:
        return F(token)
    except (ValueError, ZeroDivisionError):
        return f"cannot parse ratio {_excerpt(token)!r} (expected 'p/q' or a decimal)"


class TestParseRatioDigits:
    """Plain digits "n" and "n/d" are read by ``int()``; every text reads
    and is refused as ``Fraction`` reads and refuses it."""

    @pytest.mark.parametrize("text", [
        "007/0003", "0", "000", "0/5", "5/0", "0/0", "+3/2", "-3/2", "1_000/3", "1/1_000",
        "²", "3/²", "١٢", "١٢/7", "3/١٢", " 3/2 ", "3 / 2", "3/", "/2", "3//2", "1" * 4301,
        "1" * 4301 + "/3", "3/" + "7" * 4301, "4" * 4300 + "/" + "6" * 4300,
    ])
    def test_agrees_with_fraction(self, text):
        assert parsed_or_refusal(text) == fraction_or_refusal(text)

    def test_long_numerator_is_refused_in_one_short_line(self):
        assert parsed_or_refusal("1" * 4301) == (
            f"cannot parse ratio '{'1' * 29}...' (expected 'p/q' or a decimal)"
        )

    @given(st.text(alphabet="0123456789/+-._ .²١", max_size=12))
    def test_random_text_agrees_with_fraction(self, text):
        assert parsed_or_refusal(text) == fraction_or_refusal(text)


def reference_terms(text):
    """The reference reader: ``Fraction`` reads the stripped text, unless its
    last "e" or "E" is followed, to the end, by an optional sign and decimal
    digits and underscores worth more than ``MAX_DECIMAL_EXPONENT``; every
    failure is one refusal message."""
    token = text.strip()
    cut = max(token.rfind("e"), token.rfind("E"))
    if cut >= 0:
        tail = token[cut + 1:]
        tail = tail[1:] if tail.startswith(("+", "-")) else tail
        if all(c == "_" or c.isdecimal() for c in tail):
            digits = tail.replace("_", "").lstrip("0")
            if len(digits) > 4 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                return f"cannot parse ratio {_excerpt(token)!r}: decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}"
    try:
        return F(token).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        return f"cannot parse ratio {_excerpt(token)!r} (expected 'p/q' or a decimal)"


def terms_or_refusal(text):
    """``_ratio_terms``'s terms, or its refusal message; ``parse_ratio``
    agrees with it either way."""
    try:
        terms = _ratio_terms(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as again:
            parse_ratio(text)
        assert str(again.value) == str(exc)
        return str(exc)
    assert parse_ratio(text).as_integer_ratio() == terms
    return terms


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=8)
_PLAIN = st.one_of(
    _DIGITS,  # leading zeros included
    st.builds("{}/{}".format, _DIGITS, _DIGITS),  # n/0 and 0/0 included
    st.builds(lambda n, d, k: f"{n * k}/{d * k}", st.integers(0, 10**6), st.integers(1, 10**6),
              st.integers(1, 1000)),  # not reduced
    st.sampled_from(["1" * 4301, "0" * 4300 + "7", "7/" + "3" * 4301, "4" * 4300 + "/" + "6" * 4300]),
)
_DECIMALS = st.builds(
    "{}{}.{}".format, st.sampled_from(["", "+", "-"]), st.text("0123456789", max_size=5),
    st.text("0123456789", max_size=5),
)
_EXPONENT_DIGITS = st.sampled_from(
    ["0", "4300", "04300", "4_300", "4301", "4_301", "0004301", "99999", "1" * 20, "٤٣٠٠", "٤٣٠١", "", "_"]
)
_EXPONENTS = st.builds(
    "{}{}{}{}".format, st.sampled_from(["1", "2.5", "-3", ".5", "7/2", "1_0", "x"]),
    st.sampled_from(["e", "E"]), st.sampled_from(["", "+", "-", "+-"]), _EXPONENT_DIGITS,
)
# plain decimals "i.f", read by int() one digit run at a time: leading and
# trailing zeros, an empty side, and runs at and past int()'s 4,300 digits
_RUNS = st.sampled_from(["", "0", "00", "5", "007", "250", "1" * 4300, "1" * 4301, "0" * 4300, "9" * 4301])
_PLAIN_DECIMALS = st.one_of(
    st.builds("{}.{}".format, _RUNS, _RUNS),
    st.builds("{}.{}".format, st.text("0123456789", max_size=6), st.text("0123456789", max_size=6)),
    st.sampled_from(["1.", ".5", "1_0.5", "1._5", "١.٥", "1.٥", "٠.5", "1" * 4000 + "." + "1" * 4000]),
)
_ODD = st.text(alphabet="0123456789/+-._ eE²١٢", max_size=12)  # underscores, non-ASCII digits
_SPACES = st.sampled_from(["", " ", "\t", " \n"])
_RATIO_TEXTS = st.builds(
    "{}{}{}".format, _SPACES, st.one_of(_PLAIN, _PLAIN_DECIMALS, _DECIMALS, _EXPONENTS, _ODD), _SPACES
)


class TestRatioTerms:
    """The one ratio reader reads and refuses as ``Fraction`` behind the
    exponent guard, in lowest terms, for ``parse_ratio`` and documents alike."""

    @settings(max_examples=500, deadline=None)
    @given(_RATIO_TEXTS)
    @example("5/0")
    @example("0/0")
    @example("1" * 4301)
    @example("1e4301")
    @example("")
    def test_agrees_with_the_reference_reader(self, text):
        assert terms_or_refusal(text) == reference_terms(text)

    @pytest.mark.parametrize("text", [
        "0.5", "00.500", "1.", ".5", ".", "1_0.5", "1._5", "١.٥", "1.٥", "1.5/2", "1.2.3",
        "1" * 4300 + ".5", "1" * 4301 + ".5", "5." + "1" * 4300, "5." + "1" * 4301,
        "0" * 4301 + ".5", "1" * 4000 + "." + "1" * 4000,
    ])
    def test_plain_decimals_agree_with_fraction(self, text):
        assert terms_or_refusal(text) == reference_terms(text)

    def test_each_digit_run_has_its_own_limit(self):
        # 8,001 digits in all, but neither run is past 4,300: Fraction reads it
        text = "1" * 4000 + "." + "1" * 4000
        assert _ratio_terms(text) == F(text).as_integer_ratio()

    @pytest.mark.parametrize("text, terms", [
        ("006/004", (3, 2)), ("0/5", (0, 1)), (" 440 ", (440, 1)), ("2.76", (69, 25)),
        ("-6/4", (-3, 2)), ("1_0/4", (5, 2)), ("١٢/8", (3, 2)),
        ("002.7600", (69, 25)), ("1.", (1, 1)), (".5", (1, 2)),
    ])
    def test_lowest_terms(self, text, terms):
        assert _ratio_terms(text) == terms


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
        assert _display_score(value.numerator, value.denominator) == shown


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


# values drawn for sets, duplicates and non-positive ones among them
_SET_VALUES = st.sampled_from([F(1, 2), F(1), F(3, 2), F(5, 4), F(2, 5), F(262), F(131, 2), F(7, 8),
                               F(1, 3), F(5, 6), F(0), F(-1, 2), F(-3)])
_SPELLINGS = ["fraction", "int", "text", "decimal"]


def spelling(value, how, factor, zeros):
    """``value`` as a set value: a Fraction, an int, "n/d" text (its terms
    times ``factor``, so not always reduced) or decimal text with ``zeros``
    trailing zeros; "n/d" text where the value has no such spelling."""
    if how == "fraction":
        return value
    if how == "int" and value.denominator == 1:
        return int(value)
    places = next((k for k in range(12) if 10**k % value.denominator == 0), None)
    if how == "decimal" and places is not None:
        digits = str(abs(value.numerator) * 10**places // value.denominator).rjust(places + 1, "0")
        sign = "-" if value < 0 else ""
        return f"{sign}{digits[:len(digits) - places]}.{digits[len(digits) - places:]}{'0' * zeros}"
    return f"{value.numerator * factor}/{value.denominator * factor}"


class TestSetSemantics:
    def test_sorted_dedup(self):
        fs = FrequencySet(["3/2", "3/2", 1, "0.5"])
        assert fs.elements == (F(1, 2), F(1), F(3, 2))

    def test_union_and_intersection(self):
        a = FrequencySet([1, 2, 3])
        b = FrequencySet([3, 4])
        assert (a | b) == FrequencySet([1, 2, 3, 4])
        assert (a & b) == FrequencySet([3])

    @given(
        st.sets(st.fractions(F(1, 50), 50, max_denominator=60), max_size=8),
        st.sets(st.fractions(F(1, 50), 50, max_denominator=60), max_size=8),
    )
    def test_union_equals_the_set_of_both_element_lists(self, xs, ys):
        x, y = FrequencySet(xs), FrequencySet(ys)
        union = x | y
        assert union == FrequencySet(x.elements + y.elements)
        assert union.elements == tuple(sorted(xs | ys))
        assert union._multiplier_set == frozenset(union._multipliers)
        assert union == y | x

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_SET_VALUES, st.sampled_from(_SPELLINGS), st.integers(1, 4), st.integers(0, 2)),
                    max_size=8))
    @example([(F(1, 2), "decimal", 1, 0), (F(1, 2), "text", 1, 0), (F(1, 2), "text", 2, 0)])
    @example([(F(3), "int", 1, 0), (F(-1, 2), "decimal", 1, 1), (F(-1, 4), "text", 3, 0), (F(0), "int", 1, 0)])
    def test_equals_the_fraction_reference(self, drawn):
        values = [value for value, *_ in drawn]
        spelled = [spelling(value, *how) for value, *how in drawn]
        if values and min(values) <= 0:
            # the refusal names the smallest value, however it was written
            with pytest.raises(ValueError, match=f"^non-positive frequency {format_ratio(min(values))}$"):
                FrequencySet(spelled)
            return
        fs = FrequencySet(spelled)
        elements = sorted(set(values))
        a = F(math.gcd(*(v.numerator for v in elements)), math.lcm(*(v.denominator for v in elements)))
        assert fs.elements == tuple(elements)
        assert fs == FrequencySet(elements) and hash(fs) == hash(FrequencySet(elements))
        if elements:
            fundamental, multipliers, multiplier_set = fs._lattice_view()
            assert fundamental == a
            assert multipliers == tuple(int(v / a) for v in elements)
            assert multiplier_set == frozenset(multipliers)

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
        # transpose scales the fundamental and keeps the multipliers; a set
        # built from the same elements computes both from them
        moved = transpose(fs, t)
        fresh = FrequencySet(moved.elements)
        assert moved._lattice_view() == fresh._lattice_view()

    @given(freq_sets)
    def test_lattice_view_rebuilds_the_set(self, fs):
        fundamental, multipliers, multiplier_set = fs._lattice_view()
        assert tuple(fundamental * n for n in multipliers) == fs.elements
        assert math.gcd(*multipliers) == 1
        assert multiplier_set == frozenset(multipliers)

    @given(freq_sets, ratios)
    def test_transposed_elements_are_the_scaled_elements(self, fs, t):
        assert transpose(fs, t).elements == tuple(t * f for f in fs.elements)

    @given(freq_sets, ratios)
    def test_transposed_set_equals_and_hashes_as_a_fresh_set(self, fs, t):
        moved = transpose(fs, t)
        fresh = FrequencySet(moved.elements)
        assert moved == fresh and hash(moved) == hash(fresh)

    @given(ratios, st.integers(1, 40), ratios)
    def test_harmonic_set_equals_and_hashes_as_its_multiples(self, a, count, t):
        multiples = FrequencySet(a * n for n in range(1, count + 1))
        assert harmonic_set(a, count) == multiples
        assert hash(harmonic_set(a, count)) == hash(multiples)
        assert harmonic_set(a, count).elements == multiples.elements
        assert transpose(harmonic_set(a, count), t).elements == tuple(t * f for f in multiples)

    def test_empty_set_refuses_its_lattice(self):
        for view in (FrequencySet().fundamental, FrequencySet()._lattice_view):
            with pytest.raises(ValueError, match="^empty frequency set$"):
                view()

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
