import functools
import gc
import operator
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toneset import (
    FrequencySet,
    ParseError,
    canonical_set_expression,
    harmonic_set,
    parse_set_expression,
)


class TestParseSetExpression:
    def test_harmonic_shorthand(self):
        assert parse_set_expression("262*N6") == harmonic_set(262, 6)

    def test_harmonic_shorthand_with_underscore(self):
        assert parse_set_expression("262*N_6") == harmonic_set(262, 6)

    def test_rational_fundamental_shorthand(self):
        assert parse_set_expression("3/2*N2") == FrequencySet([F(3, 2), F(3)])

    def test_explicit_list(self):
        assert parse_set_expression("262,524,786") == FrequencySet([262, 524, 786])

    def test_decimal_list_stays_exact(self):
        fs = parse_set_expression("262,723.12")
        assert fs.elements == (F(262), F("723.12"))

    def test_note_with_reference(self):
        assert parse_set_expression("C4_6@262") == harmonic_set(262, 6)

    def test_note_with_grid_default(self):
        assert parse_set_expression("A4_5") == harmonic_set(440, 5)

    def test_one_term_is_not_rebuilt(self):
        # the term's own set comes back: no union copies its partials
        with mock.patch.object(FrequencySet, "__init__", side_effect=AssertionError("rebuilt")):
            got = parse_set_expression("262*N6")
        assert got == harmonic_set(262, 6)

    def test_union(self):
        got = parse_set_expression("C4_6@262+G4_6@393")
        assert got == harmonic_set(262, 6) | harmonic_set(393, 6)

    def test_union_dedupes(self):
        assert parse_set_expression("262*N2+262,524") == harmonic_set(262, 2)

    @pytest.mark.parametrize("bad", ["", "garbage", "262*N0", "262;524", "C4_6@x"])
    def test_rejects_bad_tokens(self, bad):
        with pytest.raises(ParseError):
            parse_set_expression(bad)

    def test_error_names_offending_token(self):
        with pytest.raises(ParseError, match="wibble"):
            parse_set_expression("262,wibble")

    @pytest.mark.parametrize(
        "expr, named",
        [
            ("262+wibble+wobble", "wibble"),
            ("262*N0+C4_6@x+wibble", "262[*]N0"),
            ("1+2+C4_6@x+262*N0", "'x'"),
            ("1+0,2+wibble", "non-positive frequency 0"),
        ],
    )
    def test_first_bad_term_is_the_one_named(self, expr, named):
        with pytest.raises(ValueError, match=named):
            parse_set_expression(expr)

    def test_many_terms_parse_in_one_union(self):
        # pairwise unions made 4,000 single-value terms cost O(k^2): 0.6 s
        terms = [str(n) for n in range(1, 4001)]
        listed = parse_set_expression(",".join(terms))
        times = []
        # the collector's passes and a cold first run are noise to this bound
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                start = time.process_time()
                got = parse_set_expression("+".join(terms))
                times.append(time.process_time() - start)
        finally:
            gc.enable()
        assert got == listed
        assert min(times) < 0.05

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=F(1, 60), max_value=1000, max_denominator=60),
                st.lists(st.integers(1, 40), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_one_union_equals_pairwise_unions(self, terms):
        # each term a fundamental times a few multipliers, the fundamentals
        # mixed so that the union's gcd falls below all of them
        sets = [FrequencySet([a * n for n in ns]) for a, ns in terms]
        got = parse_set_expression("+".join(canonical_set_expression(s) for s in sets))
        want = functools.reduce(operator.or_, sets)
        assert got == want == FrequencySet([f for s in sets for f in s])
        assert got.elements == want.elements


class TestCanonicalExpression:
    def test_round_trips(self):
        for expr in ("262*N6", "C4_6@262+G4_6@393", "1/2,3/4,440"):
            fs = parse_set_expression(expr)
            assert parse_set_expression(canonical_set_expression(fs)) == fs

    def test_plain_comma_list(self):
        fs = FrequencySet([F(3, 2), 2])
        assert canonical_set_expression(fs) == "3/2,2"
