import math
import random
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toneset import (
    FrequencySet,
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
from toneset.consonance import _lattice_scorer
from toneset import tuning
from toneset.tuning import _reduced_count, _table

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


def transposition_scorer(contextual, complementary, threshold=F(0)):
    """The lattice scorer taking the interval t itself, as t*b/a in lowest terms."""
    score = _lattice_scorer(contextual, complementary, threshold)
    ratio = complementary.fundamental() / contextual.fundamental()
    return lambda t: score(*(t * ratio).as_integer_ratio())


class TestTranspositionScorer:
    """The integer-lattice scorer against the materialising public functions."""

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
        h = data.draw(thresholds)
        score = transposition_scorer(contextual, complementary, h)(t)
        assert (score is not None) == (exact > h)

    @settings(max_examples=100, deadline=None)
    @given(small_lattice_sets, small_lattice_sets)
    def test_one_scorer_over_many_intervals(self, contextual, complementary):
        # a scorer keeps each distinct score it builds; every later interval
        # must still get its own
        score = transposition_scorer(contextual, complementary)
        for t in sorted(set(SMALL_RANGE) | affinitive_intervals(contextual, complementary)):
            assert score(t) == total_consonance(contextual, complementary.transpose(t))

    def test_set_up_costs_nothing_per_partial(self):
        # an affinity is built when a score first needs it, not for every
        # shared count up front
        many, other = harmonic_set(1, 2**20), harmonic_set(3, 2**20)
        start = time.process_time()
        _lattice_scorer(many, other)
        assert time.process_time() - start < 0.05

    def test_harmonic_sets_of_many_partials(self):
        # k ranges over many multipliers here, exercising the integer walk
        big, small = harmonic_set(262, 256), harmonic_set(393, 5)
        for contextual, complementary in ((big, small), (small, big), (big, big)):
            score = transposition_scorer(contextual, complementary)
            for t in enumerate_rationals(F(1, 4), 4, 9):
                assert score(t) == total_consonance(contextual, complementary.transpose(t))


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
        calls, scorer = [], tuning._lattice_scorer

        def counting_scorer(*args):
            score = scorer(*args)
            return lambda p, q: calls.append((p, q)) or score(p, q)

        with mock.patch.object(tuning, "_lattice_scorer", counting_scorer):
            table = harmonic_tuning(contextual, complementary, F(1, 2), F(1, 8), 8, 60)
        assert table.entries == () and calls == []
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
        intervals = affinitive_intervals(*supersets)
        expected = _table(intervals, contextual, complementary, "superset")
        entries = superset_tuning(contextual, complementary, n, m).entries
        assert first_difference(entries, expected.entries) is None
        k, kk = map(len, supersets)
        assert _reduced_count(F(1, kk), F(k), k, kk) == len(entries)

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


class TestTuningTable:
    def test_rejects_unsorted_entries(self):
        score = ConsonanceScore(F(1), F(1))
        with pytest.raises(ValueError, match="strictly increasing"):
            TuningTable(
                (TuningEntry(F(2), score), TuningEntry(F(1), score)),
                "affinitive",
            )


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
