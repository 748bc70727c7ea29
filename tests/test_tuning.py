import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F
from itertools import pairwise
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from toneset import (
    FrequencySet,
    TuningDocument,
    TuningTable,
    TuningEntry,
    ConsonanceScore,
    affinity,
    harmonicity,
    affinitive_intervals,
    affinitive_tuning,
    enumerate_rationals,
    fold_to_octave,
    harmonic_intervals,
    harmonic_set,
    harmonic_superset,
    harmonic_tuning,
    octave_reduce,
    superset_tuning,
    thomae_modified,
    total_consonance,
)
from toneset import tuning
from toneset.core import _display_score, _scientific, cents, format_ratio
from toneset.document import _render_text, table_csv
from toneset.tuning import _reduced_count

C4 = harmonic_set(262, 6)
INHARMONIC = FrequencySet(
    262 * F(r) for r in ("1", "2.76", "5.41", "8.94", "13.35", "18.65")
)

# the complete 23-interval table for a six-partial harmonic sound against itself
C4_INTERVALS = frozenset(
    [
        F(1, 6), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3),
        F(3, 4), F(4, 5), F(5, 6), F(1), F(6, 5), F(5, 4), F(4, 3), F(3, 2),
        F(5, 3), F(2), F(5, 2), F(3), F(4), F(5), F(6),
    ]
)


def oracle_pairwise_ratios(a, b):
    """Brute-force double loop over both sets."""
    out = set()
    for f in a:
        for g in b:
            out.add(f / g)
    return out


def oracle_rationals(lo, hi, max_den):
    """Brute-force double loop with reduction and dedup."""
    found = set()
    for q in range(1, max_den + 1):
        p = math.ceil(lo * q)
        while F(p, q) <= hi:
            if F(1) * p / q >= lo:
                found.add(F(p, q))
            p += 1
    return sorted(found)


def scored_oracle(intervals, contextual, complementary):
    """The intervals, sorted and scored by the materialising public functions."""
    return tuple(
        TuningEntry(t, total_consonance(contextual, complementary.transpose(t)))
        for t in sorted(intervals)
    )


def affinitive_oracle(contextual, complementary):
    return scored_oracle(affinitive_intervals(contextual, complementary), contextual, complementary)


def first_difference(got, expected):
    """Index of the first entry where two tables differ, or None.

    Tables run to thousands of entries, which pytest's own comparison
    report would spend minutes diffing.
    """
    if got == expected:
        return None
    return next(
        (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
        min(len(got), len(expected)),
    )


class TestAffinitiveIntervals:
    def test_c4_against_itself_is_the_23_interval_set(self):
        assert affinitive_intervals(C4, C4) == C4_INTERVALS
        assert len(affinitive_intervals(C4, C4)) == 23

    def test_single_partials_unison_only(self):
        single = FrequencySet([262])
        assert affinitive_intervals(single, single) == frozenset([F(1)])

    def test_single_pair(self):
        assert affinitive_intervals(FrequencySet([1]), FrequencySet([2])) == frozenset([F(1, 2)])

    def test_matches_brute_force(self):
        g4 = harmonic_set(393, 4)
        assert affinitive_intervals(C4, g4) == oracle_pairwise_ratios(C4, g4)

    def test_reflexive_symmetry(self):
        ivs = affinitive_intervals(C4, C4)
        assert all(1 / t in ivs for t in ivs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty frequency set"):
            affinitive_intervals(FrequencySet(), C4)


class TestAffinitiveTuning:
    def test_headline_scores(self):
        table = affinitive_tuning(C4, C4)
        assert len(table.entries) == 23
        by_interval = {e.interval: e.score for e in table.entries}
        assert by_interval[F(1)].total == 1
        assert by_interval[F(2)].total == F(5, 8)
        assert by_interval[F(3, 2)].total == F(4, 9)

    def test_every_entry_has_positive_affinity(self):
        table = affinitive_tuning(C4, harmonic_set(393, 5))
        assert all(e.score.affinity > 0 for e in table.entries)

    def test_entries_sorted_strictly(self):
        table = affinitive_tuning(C4, C4)
        intervals = [e.interval for e in table.entries]
        assert intervals == sorted(intervals)
        assert len(set(intervals)) == len(intervals)

    def test_single_partial_table(self):
        single = FrequencySet([262])
        table = affinitive_tuning(single, single)
        assert len(table.entries) == 1
        assert table.entries[0].interval == 1
        assert table.entries[0].score.total == 1

    def test_inharmonic_tuning(self):
        table = affinitive_tuning(INHARMONIC, INHARMONIC)
        assert {e.interval for e in table.entries} == oracle_pairwise_ratios(
            INHARMONIC, INHARMONIC
        )
        assert len(table.entries) == 31
        # harmonicity contribution is dwarfed by affinity throughout
        assert all(e.score.harmonicity < e.score.affinity for e in table.entries)
        max_affinity = max(e.score.affinity for e in table.entries)
        max_harmonicity = max(e.score.harmonicity for e in table.entries)
        assert max_harmonicity < max_affinity / 100

    def test_context_growth_never_loses_intervals(self):
        rng = random.Random(4)
        for _ in range(10):
            extra = FrequencySet(
                [F(rng.randint(200, 2000), rng.randint(1, 4)) for _ in range(2)]
            )
            grown = affinitive_intervals(C4 | extra, C4)
            assert affinitive_intervals(C4, C4) <= grown

    # sparse sets of huge multipliers: ratios such as (K+1)/K and (K+2)/(K+1)
    # differ by about 1/K^2, below a float's resolution past K = 2^27
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.builds(
                lambda base, offsets: FrequencySet(base + o for o in offsets),
                st.integers(2**54, 2**90),
                st.sets(st.integers(0, 6), min_size=1, max_size=5),
            ),
            st.builds(
                lambda base, multipliers: FrequencySet(base * n for n in multipliers),
                st.fractions(F(1, 4), 4, max_denominator=6),
                st.sets(st.integers(1, 40), min_size=1, max_size=24),
            ),
        ),
        st.data(),
    )
    def test_equals_the_materialising_oracle(self, contextual, data):
        complementary = data.draw(st.sampled_from([contextual, C4, contextual.transpose(F(3, 2))]))
        got = affinitive_tuning(contextual, complementary).entries
        assert first_difference(got, affinitive_oracle(contextual, complementary)) is None

    def test_ratios_a_float_cannot_tell_apart(self):
        k = 2**60
        near = FrequencySet([k, k + 1, k + 2])
        assert float(F(k + 1, k)) == float(F(k + 2, k + 1))
        assert affinitive_tuning(near, near).entries == affinitive_oracle(near, near)

    def test_partial_pairs_above_the_cap_are_refused(self, monkeypatch):
        monkeypatch.setattr(tuning, "MAX_TABLE_ENTRIES", 12)
        assert len(affinitive_tuning(harmonic_set(1, 3), harmonic_set(1, 4)).entries) == 9
        with pytest.raises(
            ValueError, match="^13 candidate intervals f/f' from 13 x 1 partials exceed the limit of 12$"
        ):
            affinitive_tuning(harmonic_set(1, 13), FrequencySet([1]))

    def test_gap_sampling_has_zero_affinity(self):
        intervals = sorted(affinitive_intervals(C4, C4))
        for a, b in zip(intervals, intervals[1:]):
            midpoint = (a + b) / 2
            if midpoint in C4_INTERVALS:
                continue
            assert affinity(C4, C4.transpose(midpoint)) == 0


class TestEnumerateRationals:
    def test_tiny_case_by_hand(self):
        assert enumerate_rationals(1, 2, 2) == [F(1), F(3, 2), F(2)]

    def test_max_den_five(self):
        expected = [F(1), F(6, 5), F(5, 4), F(4, 3), F(7, 5), F(3, 2), F(8, 5),
                    F(5, 3), F(7, 4), F(9, 5), F(2)]
        assert enumerate_rationals(1, 2, 5) == expected

    @pytest.mark.parametrize("max_den", [1, 2, 7, 13, 30])
    def test_matches_brute_force(self, max_den):
        lo, hi = F(1, 8), F(8)
        assert enumerate_rationals(lo, hi, max_den) == oracle_rationals(lo, hi, max_den)

    @pytest.mark.parametrize("max_den", [1, 2, 7, 13, 30])
    @pytest.mark.parametrize(
        "lo, hi",
        [(F(2, 3), F(7, 5)), (F(5, 4), F(3)), (F(1, 7), F(1, 2)), (F(3), F(10, 3))],
        ids=["2/3-7/5", "5/4-3", "1/7-1/2", "3-10/3"],
    )
    def test_matches_brute_force_off_unit_bounds(self, lo, hi, max_den):
        assert enumerate_rationals(lo, hi, max_den) == oracle_rationals(lo, hi, max_den)

    def test_narrow_range_with_large_denominator_bound(self):
        # the walk starts next to lo instead of sweeping the whole unit
        # interval, which would take ~1e8 steps here
        lo, hi = F(314159, 100000), F(314160, 100000)
        got = enumerate_rationals(lo, hi, 20_000)
        assert got == oracle_rationals(lo, hi, 20_000)
        assert F(355, 113) in got and len(got) > 1000

    def test_inclusive_bounds(self):
        got = enumerate_rationals(F(1, 8), 8, 60)
        assert got[0] == F(1, 8) and got[-1] == 8

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            enumerate_rationals(2, 1, 10)
        with pytest.raises(ValueError):
            enumerate_rationals(0, 1, 10)
        with pytest.raises(ValueError):
            enumerate_rationals(1, 2, 0)

    def test_reduced_count(self):
        # boxes of either shape: the count sums over the shorter side
        rng = random.Random(5)
        for _ in range(200):
            lo = F(rng.randint(1, 40), rng.randint(1, 12))
            hi = lo + F(rng.randint(1, 40), rng.randint(1, 12))
            max_num, max_den = rng.randint(1, 60), rng.randint(1, 30)
            expected = [t for t in oracle_rationals(lo, hi, max_den) if t.numerator <= max_num]
            assert _reduced_count(lo, hi, max_num, max_den) == len(expected)
            top = hi.numerator * max_den // hi.denominator  # the numerator bound that removes nothing
            assert _reduced_count(lo, hi, top, max_den) == len(oracle_rationals(lo, hi, max_den))

    def test_reduced_count_sieves_the_shorter_side(self, monkeypatch):
        # one side past the sieve is still counted exactly, over the other
        monkeypatch.setattr(tuning, "_SIEVE_LIMIT", 8)
        lo, hi = F(1, 10), F(10)
        for max_num, max_den in ((5, 30), (30, 5)):
            expected = [t for t in oracle_rationals(lo, hi, max_den) if t.numerator <= max_num]
            assert _reduced_count(lo, hi, max_num, max_den) == len(expected)

    def test_walk_above_cap_is_refused(self):
        # the cheap bound exceeds the cap, so the exact count decides
        with pytest.raises(ValueError, match="^1216587847926 candidate intervals .* 4194304$"):
            enumerate_rationals(F(1, 8), 1_000_000, 2000)
        # max_den past the sieve: the count up to the sieve's end already exceeds it
        with pytest.raises(ValueError, match="^at least 10280930023 candidate intervals"):
            enumerate_rationals(F(1, 8), 8, 10**13)

    def test_walk_count_past_the_sieve(self, monkeypatch):
        # a narrow range with max_den past the sieve is counted by walking it
        monkeypatch.setattr(tuning, "_SIEVE_LIMIT", 8)
        lo, hi = F(314159, 100000), F(314160, 100000)
        expected = oracle_rationals(lo, hi, 20_000)
        monkeypatch.setattr(tuning, "MAX_TABLE_ENTRIES", len(expected))
        assert enumerate_rationals(lo, hi, 20_000) == expected
        monkeypatch.setattr(tuning, "MAX_TABLE_ENTRIES", len(expected) - 1)
        with pytest.raises(ValueError, match=f"^at least {len(expected)} candidate intervals"):
            enumerate_rationals(lo, hi, 20_000)


# one-decimal partials of a one-decimal fundamental: mostly inharmonic, with
# whole-number ratios whenever the decimals happen to line up
one_decimal_sets = st.builds(
    lambda base, tenths: FrequencySet(F(base, 10) * F(x, 10) for x in tenths),
    st.integers(550, 4400),
    st.sets(st.integers(10, 400), min_size=1, max_size=12),
)
SMALL_RANGE = enumerate_rationals(F(1, 4), 4, 12)
# the same with 1-6 partials of at most 6.0 times the fundamental, so that a
# harmonic superset stays below about 64 partials
small_one_decimal_sets = st.builds(
    lambda base, tenths: FrequencySet(F(base, 10) * F(x, 10) for x in tenths),
    st.integers(550, 4400),
    st.sets(st.integers(10, 60), min_size=1, max_size=6),
)


# sets a*N over small fundamentals a and multipliers N <= 12, so that t*b/a
# stays small and the rectangle of a drawn threshold stays walkable
small_lattice_sets = st.builds(
    lambda base, multipliers: FrequencySet(base * n for n in multipliers),
    st.fractions(F(1, 4), 4, max_denominator=6),
    st.sets(st.integers(1, 12), min_size=1, max_size=4),
)


def scored_over(contextual, complementary, intervals, threshold=F(0)):
    """``tuning._scored`` in one call over the ascending intervals t, each
    handed over as t*b/a and t, both in lowest terms."""
    ratio = complementary.fundamental() / contextual.fundamental()
    pairs = [(*(t * ratio).as_integer_ratio(), *t.as_integer_ratio()) for t in intervals]
    return tuning._scored(contextual, complementary, pairs, "test", threshold)


def transposition_scorer(contextual, complementary, threshold=F(0)):
    """The score ``tuning._scored`` gives the one interval t, or None when
    its entry is not kept."""

    def score(t):
        entries = scored_over(contextual, complementary, [t], threshold).entries
        return entries[0].score if entries else None

    return score


def assert_one_call_matches_the_oracle(contextual, complementary, intervals):
    table = scored_over(contextual, complementary, intervals)
    assert table.intervals == tuple(intervals)
    for entry in table.entries:
        assert entry.score == total_consonance(contextual, complementary.transpose(entry.interval))


class TestTranspositionScorer:
    """The integer-lattice scoring of ``tuning._scored`` against the
    materialising public functions."""

    @staticmethod
    def draw_interval(data, contextual, complementary):
        # random candidates rarely share partials, so also draw intervals
        # that make some pair of partials coincide
        pool = st.sampled_from(SMALL_RANGE) | st.sampled_from(
            sorted(affinitive_intervals(contextual, complementary))
        )
        return data.draw(pool)

    @settings(max_examples=300, deadline=None)
    @given(one_decimal_sets, one_decimal_sets, st.data())
    def test_equals_total_consonance(self, contextual, complementary, data):
        t = self.draw_interval(data, contextual, complementary)
        score = transposition_scorer(contextual, complementary)(t)
        assert score == total_consonance(contextual, complementary.transpose(t))

    @settings(max_examples=300, deadline=None)
    @given(one_decimal_sets, one_decimal_sets, st.data())
    def test_threshold_decision_equals_harmonicity_test(self, contextual, complementary, data):
        t = self.draw_interval(data, contextual, complementary)
        exact = harmonicity(contextual, complementary.transpose(t))
        thresholds = st.fractions(min_value=0, max_value=F(99, 100), max_denominator=10**6)
        if exact < 1:  # the boundary itself must be rejected: the test is strict
            thresholds |= st.just(exact)
        # the bound (|N| + |M|) / max(q*N_top, p*M_top) on the harmonicity,
        # where the scorer rejects before counting shared partials
        a, n_all, _ = contextual._lattice_view()
        b, m_all, _ = complementary._lattice_view()
        p, q = (t * b / a).as_integer_ratio()
        bound = F(len(n_all) + len(m_all), max(q * n_all[-1], p * m_all[-1]))
        if bound < 1:
            thresholds |= st.just(bound)
        h = data.draw(thresholds)
        score = transposition_scorer(contextual, complementary, h)(t)
        assert (score is not None) == (exact > h)
        if h == bound:
            assert score is None

    @settings(max_examples=100, deadline=None)
    @given(small_lattice_sets, small_lattice_sets)
    def test_one_scorer_over_many_intervals(self, contextual, complementary):
        # a call keeps each distinct score it builds; every later interval
        # must still get its own
        intervals = sorted(set(SMALL_RANGE) | affinitive_intervals(contextual, complementary))
        assert_one_call_matches_the_oracle(contextual, complementary, intervals)

    def test_set_up_costs_nothing_per_partial(self):
        # an affinity is built when a score first needs it, not for every
        # shared count up front
        many, other = harmonic_set(1, 2**20), harmonic_set(3, 2**20)
        start = time.process_time()
        tuning._scored(many, other, (), "test")
        assert time.process_time() - start < 0.05

    def test_harmonic_sets_of_many_partials(self):
        # k ranges over many multipliers here, exercising the integer walk
        big, small = harmonic_set(262, 256), harmonic_set(393, 5)
        for contextual, complementary in ((big, small), (small, big), (big, big)):
            intervals = enumerate_rationals(F(1, 4), 4, 9)
            assert_one_call_matches_the_oracle(contextual, complementary, intervals)


class TestHarmonicIntervals:
    SPARSE = FrequencySet([262, 524, 1048])

    def test_no_threshold_keeps_every_candidate(self):
        got = harmonic_intervals(self.SPARSE, self.SPARSE, 0, F(1, 4), 4, 60)
        # every rational interval has positive union-harmonicity
        assert len(got) == len(enumerate_rationals(F(1, 4), 4, 60))
        assert len(got) > 500

    def test_threshold_leaves_usable_set(self):
        got = harmonic_intervals(self.SPARSE, self.SPARSE, F(23, 100), F(1, 4), 4, 60)
        assert {F(1), F(2), F(1, 2)} <= got
        assert len(got) < 30

    def test_threshold_matches_inline_oracle(self):
        def oracle_chi(t):
            union = sorted(set(self.SPARSE.elements) | {t * f for f in self.SPARSE})
            gcd = F(math.gcd(*[x.numerator for x in union]),
                    math.lcm(*[x.denominator for x in union]))
            return gcd * len(union) / union[-1]

        got = harmonic_intervals(self.SPARSE, self.SPARSE, F(23, 100), F(1, 4), 4, 60)
        expected = {
            t for t in oracle_rationals(F(1, 4), 4, 60) if oracle_chi(t) > F(23, 100)
        }
        assert got == expected

    def test_monotone_thresholding(self):
        loose = harmonic_intervals(self.SPARSE, self.SPARSE, 0, F(1, 2), 2, 20)
        tight = harmonic_intervals(self.SPARSE, self.SPARSE, F(1, 2), F(1, 2), 2, 20)
        assert tight <= loose

    def test_unreachable_threshold_gives_empty_set(self):
        single = FrequencySet([262])
        got = harmonic_intervals(single, single, F(99, 100), F(5, 4), F(7, 4), 30)
        assert got == frozenset()

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="h must lie in"):
            harmonic_intervals(self.SPARSE, self.SPARSE, 1, 1, 2, 10)
        with pytest.raises(ValueError, match="h must lie in"):
            harmonic_intervals(self.SPARSE, self.SPARSE, F(-1, 10), 1, 2, 10)


class TestHarmonicTuning:
    def test_single_partial_totals_follow_interval_complexity(self):
        single = FrequencySet([262])
        table = harmonic_tuning(single, single, 0, F(1, 8), 8, 60)
        assert len(table.entries) == len(enumerate_rationals(F(1, 8), 8, 60))
        assert all(e.score.total == thomae_modified(e.interval) for e in table.entries)

    def test_nested_thresholds_nest_tables(self):
        sparse = FrequencySet([262, 524, 1048])
        low = {e.interval for e in harmonic_tuning(sparse, sparse, 0, F(1, 2), 2, 30).entries}
        high = {e.interval for e in harmonic_tuning(sparse, sparse, F(1, 2), F(1, 2), 2, 30).entries}
        assert high < low  # strict: the octave sits exactly at threshold 1/2

    @settings(max_examples=100, deadline=None)
    @given(small_one_decimal_sets, small_one_decimal_sets, st.data())
    def test_equals_the_filter_over_enumerate_rationals(self, contextual, complementary, data):
        lo = data.draw(st.fractions(F(1, 8), 4, max_denominator=12), "lo")
        hi = data.draw(st.fractions(lo, 8, max_denominator=12).filter(lambda x: x > lo), "hi")
        max_den = data.draw(st.integers(1, 12), "max_den")
        candidates = enumerate_rationals(lo, hi, max_den)
        scores = [total_consonance(contextual, complementary.transpose(t)) for t in candidates]
        # thresholds equal to a candidate's harmonicity test the strict cut
        thresholds = st.just(F(0)) | st.fractions(0, F(99, 100), max_denominator=10**4)
        exact = [s.harmonicity for s in scores if s.harmonicity < 1]
        if exact:
            thresholds |= st.sampled_from(exact)
        h = data.draw(thresholds, "h")
        expected = tuple(
            TuningEntry(t, s) for t, s in zip(candidates, scores) if s.harmonicity > h
        )
        got = harmonic_tuning(contextual, complementary, h, lo, hi, max_den).entries
        assert first_difference(got, expected) is None


def forced_walk(walk, *args):
    """``harmonic_tuning(*args)`` with the walk it takes fixed: the rectangle
    is taken when its area is below the bounded walk's cheap bound."""
    bound = math.inf if walk == "rectangle" else 0
    with mock.patch.object(tuning, "_walk_bound", return_value=bound):
        return harmonic_tuning(*args)


class TestHarmonicWalks:
    """The rectangle walk for h > 0 against the bounded walk."""

    @settings(max_examples=150, deadline=None)
    @given(small_lattice_sets, small_lattice_sets, st.data())
    def test_both_walks_give_identical_tables(self, contextual, complementary, data):
        lo = data.draw(st.fractions(F(1, 8), 4, max_denominator=12), "lo")
        hi = data.draw(st.fractions(lo, 8, max_denominator=12).filter(lambda x: x > lo), "hi")
        max_den = data.draw(st.integers(1, 16), "max_den")
        exact = {
            harmonicity(contextual, complementary.transpose(t))
            for t in enumerate_rationals(lo, hi, max_den)
        }
        # thresholds at a candidate's exact harmonicity test the strict cut;
        # keep those whose rectangle is small enough to walk
        walkable = sorted(
            x for x in exact
            if 0 < x < 1 and math.prod(tuning._rectangle_sides(contextual, complementary, x)) <= 20_000
        )
        thresholds = st.fractions(F(1, 20), F(99, 100), max_denominator=100)
        if walkable:
            thresholds |= st.sampled_from(walkable)
        h = data.draw(thresholds, "h")
        args = (contextual, complementary, h, lo, hi, max_den)
        rectangle, bounded = forced_walk("rectangle", *args), forced_walk("bounded", *args)
        assert first_difference(rectangle.entries, bounded.entries) is None
        assert rectangle.entries == harmonic_tuning(*args).entries

    def test_rectangle_sides_are_tight(self):
        # single partials: harmonicity 2/max(p, q) off unison, so the largest
        # p and q that clear 1/12 are 23 = (2*12 - 1) // 1
        single = FrequencySet([1])
        assert tuning._rectangle_sides(single, single, F(1, 12)) == (23, 23)
        table = forced_walk("rectangle", single, single, F(1, 12), F(1, 8), 23, 60)
        assert table.entries == forced_walk("bounded", single, single, F(1, 12), F(1, 8), 23, 60).entries
        assert {F(23), F(23, 22), F(1, 8)} <= set(table.intervals)

    def test_walk_is_chosen_by_the_smaller_bound(self):
        single = FrequencySet([262])
        with mock.patch.object(tuning, "_walk", wraps=tuning._walk) as spy:
            coarse = harmonic_tuning(single, single, F(1, 12))
            assert spy.call_args.args[2:] == (23, 23)  # 23*23 against about 14,500
            # (2*10^6 - 1)^2 candidates: the bounded walk is taken, and fits
            fine = harmonic_tuning(single, single, F(1, 10**6))
            assert spy.call_args.args[2:] == (480, 60)
            zero = harmonic_tuning(single, single, 0)
            assert spy.call_args.args[2:] == (480, 60)
            assert spy.call_count == 3
        assert len(fine.entries) == len(enumerate_rationals(F(1, 8), 8, 60))
        assert fine.entries == zero.entries
        assert coarse.intervals == tuple(t for t in fine.intervals if thomae_modified(t) > F(1, 24))

    @pytest.mark.parametrize(
        "contextual, complementary, sides",
        [(FrequencySet([1]), FrequencySet([1, 100]), (0, 5)),
         (FrequencySet([1, 100]), FrequencySet([1]), (5, 0))],
    )
    def test_empty_rectangle_gives_empty_table_unscored(self, contextual, complementary, sides):
        # harmonicity <= 3/100 < 1/2 everywhere: P or Q is 0, and no candidate is scored
        assert tuning._rectangle_sides(contextual, complementary, F(1, 2)) == sides
        walked, walk = [], tuning._walk

        def recording_walk(*args):
            for pair in walk(*args):
                walked.append(pair)
                yield pair

        with mock.patch.object(tuning, "_walk", recording_walk):
            table = harmonic_tuning(contextual, complementary, F(1, 2), F(1, 8), 8, 60)
        assert table.entries == () and walked == []
        assert forced_walk("bounded", contextual, complementary, F(1, 2), F(1, 8), 8, 60).entries == ()

    def test_rectangle_above_the_cap_is_counted(self, monkeypatch):
        single = FrequencySet([1])
        expected = forced_walk("bounded", single, single, F(1, 12), F(1, 8), 8, 60).entries
        walked = len(list(tuning._walk(F(1, 8), F(8), 23, 23)))
        monkeypatch.setattr(tuning, "MAX_TABLE_ENTRIES", walked)
        assert forced_walk("rectangle", single, single, F(1, 12), F(1, 8), 8, 60).entries == expected
        monkeypatch.setattr(tuning, "MAX_TABLE_ENTRIES", walked - 1)
        with pytest.raises(ValueError, match=f"^{walked} candidate intervals p/q .* 23 .* 23 exceed"):
            forced_walk("rectangle", single, single, F(1, 12), F(1, 8), 8, 60)

    def test_consecutive_calls_share_no_scores(self):
        single = FrequencySet([262])
        first = harmonic_tuning(single, single, 0, F(1, 2), 2, 12)
        second = harmonic_tuning(single, single, 0, F(1, 2), 2, 12)
        assert first.entries == second.entries
        assert all(a.score is not b.score for a, b in zip(first.entries, second.entries))
        # within one call, equal scores are one object: 3/2 and 2/3 both score (0, 1/3)
        by_interval = {e.interval: e.score for e in first.entries}
        assert by_interval[F(3, 2)] is by_interval[F(2, 3)]


class TestSupersetTuning:
    @settings(max_examples=100, deadline=None)
    @given(small_one_decimal_sets, small_one_decimal_sets, st.integers(0, 4), st.integers(0, 4))
    def test_rectangle_walk_equals_the_sorted_superset_ratios(
        self, contextual, complementary, n, m
    ):
        supersets = harmonic_superset(contextual, n), harmonic_superset(complementary, m)
        expected = scored_oracle(affinitive_intervals(*supersets), contextual, complementary)
        entries = superset_tuning(contextual, complementary, n, m).entries
        assert first_difference(entries, expected) is None
        k, kk = map(len, supersets)
        assert _reduced_count(F(1, kk), F(k), k, kk) == len(entries)

    @settings(max_examples=60, deadline=None)
    @given(small_lattice_sets, small_lattice_sets, st.fractions(F(1, 100), F(3, 10), max_denominator=100))
    def test_contains_the_affinitive_and_every_harmonic_table(self, contextual, complementary, h):
        superset = superset_tuning(contextual, complementary).entries
        positive = tuple(e for e in superset if e.score.affinity > 0)
        assert affinitive_tuning(contextual, complementary).entries == positive
        # every t clearing h has t*b/a = p/q with p <= P and q <= Q
        p_top, q_top = map(max, tuning._rectangle_sides(contextual, complementary, h), (1, 1))
        ratio = contextual.fundamental() / complementary.fundamental()
        box = (ratio / (q_top + 1), ratio * (p_top + 1), q_top * ratio.denominator)
        n_top, m_top = contextual._lattice_view()[1][-1], complementary._lattice_view()[1][-1]
        widened = superset_tuning(contextual, complementary, max(0, p_top - n_top), max(0, q_top - m_top))
        expected = tuple(e for e in widened.entries if e.score.harmonicity > h)
        assert harmonic_tuning(contextual, complementary, h, *box).entries == expected

    def test_coprime_pair_count(self):
        for k in range(1, 25):
            for kk in range(1, 25):
                brute = sum(
                    math.gcd(p, q) == 1 for p in range(1, k + 1) for q in range(1, kk + 1)
                )
                assert _reduced_count(F(1, kk), F(k), k, kk) == brute
        # the superset table of fig5_4's spectrum against itself
        assert _reduced_count(F(1, 1865), F(1865), 1865, 1865) == 2_115_723

    def test_single_partial_extended_superset(self):
        single = FrequencySet([262])
        table = superset_tuning(single, single, 4, 4)
        expected = {F(p, q) for p in range(1, 6) for q in range(1, 6)}
        assert {e.interval for e in table.entries} == expected

    def test_zero_extension_of_singleton_is_unison_only(self):
        single = FrequencySet([262])
        table = superset_tuning(single, single, 0, 0)
        assert len(table.entries) == 1
        assert table.entries[0].interval == 1
        assert table.entries[0].score.total == 1

    def test_harmonic_context_matches_affinitive(self):
        table = superset_tuning(C4, C4, 0, 0)
        assert {e.interval for e in table.entries} == affinitive_intervals(C4, C4)

    def test_scores_come_from_original_sets(self):
        single = FrequencySet([262])
        table = superset_tuning(single, single, 4, 4)
        by_interval = {e.interval: e.score for e in table.entries}
        # 5/4 is generated by the superset but shares nothing with the singleton
        assert by_interval[F(5, 4)].affinity == 0
        assert by_interval[F(5, 4)].total == thomae_modified(F(5, 4))

    def test_affinitive_is_subset_for_random_pairs(self):
        rng = random.Random(42)

        def random_set():
            base = F(rng.randint(100, 500))
            return FrequencySet(
                {base * F(rng.randint(1, 10), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))}
            )

        for _ in range(6):
            a, b = random_set(), random_set()
            aff = affinitive_intervals(a, b)
            for n in (0, 2, 4):
                for m in (0, 2, 4):
                    sup = {e.interval for e in superset_tuning(a, b, n, m).entries}
                    assert aff <= sup


class TestOctaveReduce:
    def test_fold_examples(self):
        assert fold_to_octave(F(4, 5)) == F(8, 5)
        assert fold_to_octave(F(1)) == 1
        assert fold_to_octave(F(3)) == F(3, 2)
        assert fold_to_octave(F(2)) == 1

    def test_fold_lands_in_octave_by_power_of_two(self):
        rng = random.Random(11)
        for _ in range(200):
            t = F(rng.randint(1, 300), rng.randint(1, 300))
            folded = fold_to_octave(t)
            assert 1 <= folded < 2
            quotient = folded / t
            # the fold factor is a (possibly negative) power of two
            assert quotient.numerator & (quotient.numerator - 1) == 0
            assert quotient.denominator & (quotient.denominator - 1) == 0

    @staticmethod
    def folded_by_loop(t):
        while t < 1:
            t *= 2
        while t >= 2:
            t /= 2
        return t

    @settings(max_examples=500, deadline=None)
    @given(
        st.builds(F, st.integers(1, 2**90), st.integers(1, 2**90))
        # powers of two and their near neighbours, where the fold turns over
        | st.builds(
            lambda e, n, d: F(2) ** e * F(n, d),
            st.integers(-120, 120),
            st.integers(2**20 - 2, 2**20 + 2),
            st.sampled_from([1, 2**20 - 1, 2**20, 2**20 + 1]),
        )
    )
    def test_fold_equals_the_octave_loop(self, t):
        assert fold_to_octave(t) == self.folded_by_loop(t)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(
            st.builds(F, st.integers(1, 2**70), st.integers(1, 2**70))
            | st.builds(lambda e, n: F(2) ** e * n, st.integers(-80, 80), st.sampled_from([1, 3, 5])),
            min_size=1,
            max_size=12,
        ),
        small_lattice_sets,
        small_lattice_sets,
    )
    def test_folds_rows_as_fold_to_octave_does(self, intervals, contextual, complementary):
        score = ConsonanceScore(F(0), F(1))
        table = TuningTable(tuple(TuningEntry(t, score) for t in sorted(intervals)), "x")
        reduced = octave_reduce(table, contextual, complementary)
        assert reduced.intervals == tuple(sorted({fold_to_octave(t) for t in intervals}))
        assert reduced.generator == "x"
        for entry in reduced.entries:
            assert entry.score == total_consonance(contextual, complementary.transpose(entry.interval))

    def test_nonpositive_interval_is_refused_as_by_fold_to_octave(self):
        # no table holds such an interval: the constructor refuses it with
        # fold_to_octave's message, so octave_reduce never meets one
        score = ConsonanceScore(F(0), F(1))
        for t in (F(0), F(-3, 2)):
            with pytest.raises(ValueError, match="^interval must be positive$"):
                fold_to_octave(t)
            with pytest.raises(ValueError, match="^interval must be positive$"):
                octave_reduce(
                    TuningTable((TuningEntry(t, score), TuningEntry(F(2), score)), "x"), C4, C4
                )

    def test_reduced_c4_table(self):
        table = octave_reduce(affinitive_tuning(C4, C4), C4, C4)
        assert [e.interval for e in table.entries] == [
            F(1), F(6, 5), F(5, 4), F(4, 3), F(3, 2), F(8, 5), F(5, 3)
        ]

    def test_folded_fifth_is_rescored_not_carried(self):
        table = octave_reduce(affinitive_tuning(C4, C4), C4, C4)
        by_interval = {e.interval: e.score for e in table.entries}
        # 4/5 folds to 8/5, which shares no partials with the context
        assert F(4, 5) not in by_interval
        assert by_interval[F(8, 5)].affinity == 0
        # 3 folds onto 3/2 and picks up the fifth's own score
        assert by_interval[F(3, 2)] == total_consonance(C4, C4.transpose(F(3, 2)))
        assert by_interval[F(3, 2)].total == F(4, 9)

    def test_unison_entry_unchanged(self):
        table = octave_reduce(affinitive_tuning(C4, C4), C4, C4)
        assert table.entries[0].interval == 1
        assert table.entries[0].score.total == 1

    def test_idempotent(self):
        once = octave_reduce(affinitive_tuning(C4, C4), C4, C4)
        twice = octave_reduce(once, C4, C4)
        assert once.entries == twice.entries


def generated_tables(contextual, complementary, h, n, m):
    """A table from each generator and walk: affinitive, the rectangle and
    bounded harmonic walks for h, harmonic at h = 0, superset, and the
    superset table octave-reduced."""
    args = (contextual, complementary, h, F(1, 4), 4, 12)
    tables = [
        affinitive_tuning(contextual, complementary),
        forced_walk("rectangle", *args),
        forced_walk("bounded", *args),
        harmonic_tuning(contextual, complementary, 0, F(1, 4), 4, 12),
        superset_tuning(contextual, complementary, n, m),
    ]
    return tables + [octave_reduce(tables[-1], contextual, complementary)]


class TestTuningTable:
    def test_rejects_unsorted_entries(self):
        score = ConsonanceScore(F(1), F(1))
        with pytest.raises(ValueError, match="strictly increasing"):
            TuningTable(
                (TuningEntry(F(2), score), TuningEntry(F(1), score)),
                "affinitive",
            )

    @pytest.mark.parametrize("first", [F(-3, 2), F(0)])
    def test_rejects_non_positive_intervals(self, first):
        # an ascending table of a non-positive and a positive interval used
        # to be built, and its writers then failed with a math domain error
        score = ConsonanceScore(F(1), F(1))
        entries = (TuningEntry(first, score), TuningEntry(F(3, 2), score))
        with pytest.raises(ValueError, match="^interval must be positive$"):
            TuningTable(entries, "superset")
        with pytest.raises(ValueError, match="^interval must be positive$"):
            TuningDocument({"generator": "superset"}, entries)

    @settings(max_examples=100, deadline=None)
    @given(
        small_lattice_sets,
        small_lattice_sets,
        st.fractions(F(1, 10), F(9, 10), max_denominator=20),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    def test_every_generated_table_passes_the_public_check(self, contextual, complementary, h, n, m):
        # generators build their tables without the order check; each table
        # must still pass it when built through the public constructor
        for table in generated_tables(contextual, complementary, h, n, m):
            assert TuningTable(table.entries, table.generator) == table


def eager_entries(table, contextual, complementary):
    """The entries of the intervals a table lists, each scored by the public
    oracle."""
    return tuple(
        TuningEntry(t, total_consonance(contextual, complementary.transpose(t)))
        for t in table.intervals
    )


def written(doc):
    """Every table writer's bytes for a document, or the message it raises."""
    outputs = []
    for write in (doc.to_csv, doc.to_json, lambda: _render_text(doc, "interval"),
                  lambda: _render_text(doc, "consonance")):
        try:
            outputs.append(write())
        except ValueError as exc:
            outputs.append(f"ValueError: {exc}")
    return outputs


class TestTableRows:
    """Generated tables hold rows of ascending reduced intervals; their
    entries, intervals and written bytes equal those of the same intervals
    scored by the public oracle."""

    _draws = (
        small_lattice_sets,
        small_lattice_sets,
        st.fractions(F(1, 10), F(9, 10), max_denominator=20),
        st.integers(0, 3),
        st.integers(0, 3),
    )

    @settings(max_examples=100, deadline=None)
    @given(*_draws)
    def test_rows_are_ascending_reduced_intervals(self, contextual, complementary, h, n, m):
        for table in generated_tables(contextual, complementary, h, n, m):
            assert all(math.gcd(num, den) == 1 for num, den, _ in table._rows)
            assert all(a * d < c * b for (a, b, _), (c, d, _) in pairwise(table._rows))

    @settings(max_examples=100, deadline=None)
    @given(*_draws)
    def test_lazy_views_equal_the_eager_entries(self, contextual, complementary, h, n, m):
        for table in generated_tables(contextual, complementary, h, n, m):
            eager = eager_entries(table, contextual, complementary)
            reference = TuningTable(eager, table.generator)
            # compared before the lazy table has built anything
            assert hash(table) == hash(reference)
            assert table == reference and repr(table) == repr(reference)
            assert table.entries == eager and table.intervals == reference.intervals
            for change in ({"generator": "x"}, {"entries": eager[:1]}):
                assert replace(table, **change) == replace(reference, **change)

    @settings(max_examples=60, deadline=None)
    @given(*_draws, st.booleans())
    def test_writers_equal_those_of_the_eager_entries(self, contextual, complementary, h, n, m, notes):
        root = F(262) if notes else None  # a C4 root names most intervals
        for table in generated_tables(contextual, complementary, h, n, m):
            doc = TuningDocument.from_table(table, "F", "G", {"h": "x"}, annotate_root=root)
            by_entries = TuningDocument(doc.metadata, doc.entries)
            eager = eager_entries(table, contextual, complementary)
            assert table_csv(table) == table_csv(eager) == by_entries.to_csv()
            assert written(doc) == written(by_entries)
            assert written(TuningDocument.from_json(doc.to_json())) == written(doc)

    def test_term_too_long_to_print_is_named_alike(self):
        # the row holds the 4,401-digit term
        huge, unit = FrequencySet([10**4400]), FrequencySet([1])
        table = affinitive_tuning(huge, unit)
        assert table._rows[0][:2] == (10**4400, 1)
        doc = TuningDocument.from_table(table, "F", "G")
        message = "ValueError: interval is too long to print: its numerator has 4401 digits"
        assert all(text.startswith(message) for text in written(doc))
        assert written(doc) == written(TuningDocument(doc.metadata, table.entries))


def reference_writers(metadata, entries):
    """The CSV, JSON and interval- and consonance-ordered text of a
    document's entries, every score field formatted from the Fractions of
    its ``ConsonanceScore``."""

    def values(e):
        return e.score.affinity, e.score.harmonicity, e.score.total

    def float_cell(x):
        return repr(float(x)) if float(x) or not x else _scientific(x)

    def shown_text(x):
        shown = _display_score(x.numerator, x.denominator)
        if isinstance(shown, str):
            return shown
        return f"{shown:.3f}" if shown == round(shown, 3) else f"{shown:.3e}"

    def text(ordered):
        head = [
            f"# {metadata['generator']} tuning  F={metadata['context']}  F'={metadata['complement']}",
            f"{'interval':>10}  {'cents':>10}  {'affinity':>16}  {'harmonicity':>18}  {'total':>16}  note",
        ]
        return "\n".join(head + [
            f"{format_ratio(e.interval, always_slash=True):>10}  {cents(e.interval):>10.4f}"
            + "".join(f"  {format_ratio(v, always_slash=True):>8} ({shown_text(v)})" for v in values(e))
            + f"  {e.note or ''}"
            for e in ordered
        ]) + "\n"

    csv = "interval_ratio,cents,affinity,harmonicity,total\n" + "".join(
        f"{format_ratio(e.interval, always_slash=True)},{cents(e.interval):.4f},"
        + ",".join(float_cell(v) for v in values(e)) + "\n"
        for e in entries
    )
    labels = ("affinity", "harmonicity", "total")
    rows = []
    for e in entries:
        row = {"interval": format_ratio(e.interval, always_slash=True), "cents": round(cents(e.interval), 4)}
        row.update(zip(labels, (format_ratio(v, always_slash=True) for v in values(e))))
        row.update(zip((f"{label}_float" for label in labels),
                       (_display_score(v.numerator, v.denominator) for v in values(e))))
        if e.note is not None:
            row["note"] = e.note
        rows.append(row)
    document = json.dumps({"metadata": metadata, "entries": rows}, indent=2, ensure_ascii=False) + "\n"
    by_total = sorted(entries, key=lambda e: -e.score.total)  # stable: ties keep interval order
    return [csv, document, text(entries), text(by_total)]


def every_table(contextual, complementary, h):
    """A table from each generator and walk, and each of them octave-reduced;
    the superset table only where the supersets are not refused."""
    args = (contextual, complementary, h, F(1, 4), 4, 12)
    tables = [
        affinitive_tuning(contextual, complementary),
        forced_walk("rectangle", *args),
        forced_walk("bounded", *args),
        harmonic_tuning(contextual, complementary, 0, F(1, 4), 4, 12),
    ]
    try:
        tables.append(superset_tuning(contextual, complementary, 1, 2))
    except ValueError:  # a superset past MAX_HARMONIC_PARTIALS
        pass
    return tables + [octave_reduce(table, contextual, complementary) for table in tables]


class TestGeneratedTablesMatchTheReference:
    """Every generator's entries are the oracle's scores, and every writer's
    bytes those of the reference writers over them."""

    @settings(max_examples=40, deadline=None)
    @given(small_lattice_sets, small_lattice_sets, st.integers(0, 50), st.booleans())
    # scores far below the float range: cells fall back to scientific text
    @example(FrequencySet(["1e400", "2"]), FrequencySet(["3"]), 0, True)
    def test_entries_and_writers(self, contextual, complementary, pick, notes):
        # a threshold at a candidate's exact harmonicity tests the strict cut
        exact = sorted(
            x for t in SMALL_RANGE
            for x in (harmonicity(contextual, complementary.transpose(t)),) if F(1, 100) <= x < 1
        )
        h = exact[pick % len(exact)] if exact else F(1, 2)
        root = F(262) if notes else None
        for table in every_table(contextual, complementary, h):
            for entry in table.entries:
                assert entry.score == total_consonance(contextual, complementary.transpose(entry.interval))
            doc = TuningDocument.from_table(table, "F", "G", {"h": "x"}, annotate_root=root)
            reference = reference_writers(doc.metadata, tuple(
                TuningEntry(t, total_consonance(contextual, complementary.transpose(t)), note)
                for t, note in zip(table.intervals, [e.note for e in doc.entries])
            ))
            assert written(doc) == reference
            assert written(TuningDocument.from_json(doc.to_json())) == reference


class TestGeneratorRefusals:
    @pytest.mark.parametrize("sets", [(FrequencySet(), C4), (C4, FrequencySet())])
    def test_empty_sets(self, sets):
        with pytest.raises(ValueError, match="empty frequency set"):
            harmonic_tuning(*sets, 0)
        with pytest.raises(ValueError, match="empty frequency set"):
            superset_tuning(*sets)

    def test_threshold_then_empty_set_then_bounds(self):
        with pytest.raises(ValueError, match="threshold"):
            harmonic_tuning(FrequencySet(), C4, 1, 2, 1)
        with pytest.raises(ValueError, match="empty frequency set"):
            harmonic_tuning(FrequencySet(), C4, 0, 2, 1)
        with pytest.raises(ValueError, match="invalid range"):
            harmonic_tuning(C4, C4, 0, 2, 1)

    def test_bad_threshold_costs_nothing_per_partial(self):
        many = harmonic_set(1, 10**5)
        start = time.process_time()
        with pytest.raises(ValueError, match="threshold"):
            harmonic_tuning(many, many, 2)
        assert time.process_time() - start < 0.03
