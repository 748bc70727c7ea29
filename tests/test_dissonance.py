import dataclasses
import math
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toneset import (
    affinitive_intervals,
    FrequencySet,
    CurvePoint,
    DEFAULT_PARAMS,
    DissonanceParams,
    dissonance_curve,
    harmonic_set,
    pair_roughness,
    spectrum_roughness,
)
from toneset import dissonance
from toneset.dissonance import _B1, _B2, _CUT, _S1, _S2, _check_pairs, _checked, _chunk_rows, _upper_pairs

C4 = harmonic_set(262, 6)


def all_pairs_roughness(freqs, params=DEFAULT_PARAMS):
    """Reference: pair_roughness summed over every unordered pair."""
    return math.fsum(
        pair_roughness(a, b, params) for i, a in enumerate(freqs) for b in freqs[i + 1 :]
    )


def oracle_totals(F_, G, ts, params):
    """all_pairs_roughness at each t."""
    return [all_pairs_roughness(list(F_) + [t * g for g in G], params) for t in ts]


def assert_matches_oracle(d, want, pairs):
    # the tolerance of TestDissonanceCurve.test_matches_all_pairs_sum
    assert math.isclose(d, want, rel_tol=1e-12, abs_tol=1e-14 * pairs), (d, want)


# the kernel constants that DissonanceParams once took as fields
FORMER_KERNEL_FIELDS = [
    "curve_slope",
    "curve_offset",
    "decay_fast",
    "decay_slow",
    "weight_fast",
    "weight_slow",
    "amplitude",
]

# a skipped pair's kernel value may exceed 2^-100 only by the rounding of its x
SKIP_BOUND = 2.0**-100 * (1 + 1e-9)


def interior_minima(values):
    return [
        i
        for i in range(1, len(values) - 1)
        if values[i] <= values[i - 1] and values[i] <= values[i + 1]
    ]


def minima_prominences(values):
    """Depth of each interior local minimum below its enclosing local maxima."""
    proms = []
    for i in interior_minima(values):
        j = i
        while j > 0 and values[j - 1] >= values[j]:
            j -= 1
        k = i
        while k < len(values) - 1 and values[k + 1] >= values[k]:
            k += 1
        proms.append(min(values[j], values[k]) - values[i])
    return proms


class TestPairRoughness:
    def test_zero_at_coincidence(self):
        assert pair_roughness(440.0, 440.0) == 0.0

    def test_positive_nearby(self):
        assert pair_roughness(440.0, 460.0) > 0

    def test_symmetric_in_arguments(self):
        assert pair_roughness(400.0, 425.0) == pair_roughness(425.0, 400.0)

    def test_maximum_sits_at_predicted_offset(self):
        # the kernel c1*e^(b1*x) + c2*e^(b2*x) peaks at
        # x_m = ln(b2/b1)/(b1-b2); with x = chi_star*d/(s1*fmin+s2) the
        # roughness maximum lands at d = x_m*(s1*fmin+s2)/chi_star
        x_m = math.log(_B2 / _B1) / (_B1 - _B2)
        predicted = x_m * (_S1 * 400.0 + _S2) / DEFAULT_PARAMS.chi_star
        offsets = np.linspace(0.01, 4 * predicted, 200_000)
        values = [pair_roughness(400.0, 400.0 + d) for d in offsets]
        located = offsets[int(np.argmax(values))]
        assert abs(located - predicted) / predicted < 0.01
        assert max(values) > 0.8  # the kernel's interior maximum

    def test_tail_is_negligible_past_two_octaves(self):
        peak = max(pair_roughness(400.0, 400.0 + d) for d in np.linspace(0.1, 100, 2000))
        assert pair_roughness(400.0, 1600.0) < 0.01 * peak

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            pair_roughness(0.0, 440.0)
        with pytest.raises(ValueError):
            pair_roughness(440.0, -1.0)

    def test_chi_star_must_be_positive(self):
        with pytest.raises(ValueError):
            DissonanceParams(chi_star=0.0)

    @pytest.mark.parametrize("chi_star", [math.nan, math.inf])
    def test_chi_star_must_be_finite(self, chi_star):
        with pytest.raises(ValueError, match="finite"):
            DissonanceParams(chi_star=chi_star)

    def test_chi_star_is_the_only_parameter(self):
        # the kernel's other constants are Sethares's, fixed in the module
        assert [f.name for f in dataclasses.fields(DissonanceParams)] == ["chi_star"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", FORMER_KERNEL_FIELDS)
    def test_every_field_must_be_finite(self, field, value):
        # refused when built, not after a sweep has run on it: a kernel
        # constant that was once a field is no longer a parameter at all
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'$"):
            DissonanceParams(**{field: value})


@st.composite
def sweeps(draw):
    """Integer spectra of 1-16 partials, some shared between F and G, and a
    step count on either side of one chunk of the sweep."""
    F_ = draw(st.lists(st.integers(20, 2000), min_size=1, max_size=16, unique=True))
    G = draw(
        st.lists(
            st.one_of(st.sampled_from(F_), st.integers(20, 2000)),
            min_size=1,
            max_size=16,
            unique=True,
        )
    )
    rows = _chunk_rows(len(F_), len(G))
    steps = draw(st.sampled_from([2, max(2, rows - 1), rows, rows + 1]))
    t_hi = draw(st.floats(1.05, 4.0))
    chi_star = draw(st.sampled_from([0.24, 0.03, 0.003]))
    return [float(f) for f in F_], [float(g) for g in G], t_hi, steps, chi_star


@st.composite
def wide_sweeps(draw):
    """1-40 partials each side, spread log-uniformly over 20 Hz - 20 kHz so
    that a sweep skips pairs, some shared between F and G; a chunk of 1-40
    steps (most not dividing 16) and a step count on either side of the
    first chunk and block boundaries or past several of them."""
    freqs = st.floats(math.log(20), math.log(20000)).map(math.exp)
    F_ = draw(st.lists(freqs, min_size=1, max_size=40, unique=True))
    G = draw(st.lists(st.one_of(st.sampled_from(F_), freqs), min_size=1, max_size=40, unique=True))
    rows = draw(st.sampled_from([1, 2, 3, 5, 7, 16, 17, 40]))
    block = rows * -(-16 // rows)
    steps = draw(
        st.sampled_from([rows, rows + 1, block - 1, block, block + 1, 2 * block + rows + 1])
        | st.integers(2, 3 * block + 2)
    )
    t_lo = draw(st.sampled_from([1.0, 0.5, 0.93]))
    t_hi = t_lo * draw(st.floats(1.05, 8.0))
    chi_star = draw(st.sampled_from([0.24, 1.0, 0.03]))
    return F_, G, t_lo, t_hi, rows, max(2, steps), DissonanceParams(chi_star=chi_star)


def chunk_elements(F_, G, rows):
    """The chunk budget that makes a sweep of F_ against G ``rows`` steps a chunk."""
    return rows * max(len(F_) * len(G), len(G) * (len(G) - 1) // 2)


class TestSkippedPairs:
    """Pairs whose kernel cannot exceed 2^-100 are left out of a sweep, per
    block of at least 16 steps for cross pairs and once for pairs within
    tF'; the totals still match the all-pairs oracle."""

    @settings(max_examples=60, deadline=None)
    @given(wide_sweeps(), st.data())
    def test_matches_all_pairs_sum_at_every_boundary(self, sweep, data):
        F_, G, t_lo, t_hi, rows, steps, params = sweep
        with mock.patch.object(dissonance, "_CHUNK_ELEMENTS", chunk_elements(F_, G, rows)):
            assert _chunk_rows(len(F_), len(G)) == rows
            points = dissonance_curve(F_, G, t_lo, t_hi, steps, params)
        ts = np.geomspace(t_lo, t_hi, steps).tolist()
        assert [p.t for p in points] == ts
        # both sides of every chunk boundary, and so of every block boundary
        picked = {0, steps - 1, data.draw(st.integers(0, steps - 1))}
        picked |= {i + d for i in range(rows, steps, rows) for d in (-1, 0)}
        picked = sorted(picked)
        pairs = math.comb(len(F_) + len(G), 2)
        for i, want in zip(picked, oracle_totals(F_, G, [ts[i] for i in picked], params)):
            assert_matches_oracle(points[i].dissonance, want, pairs)

    @settings(max_examples=40, deadline=None)
    @given(wide_sweeps())
    def test_every_skipped_pair_is_below_the_bound(self, sweep):
        F_, G, t_lo, t_hi, rows, steps, params = sweep
        chunks, kept_within = [], []
        cross_chunks, moving_pairs = dissonance._cross_chunks, dissonance._moving_pairs

        def record_chunks(*args):
            for chunk in cross_chunks(*args):
                chunks.append(chunk)
                yield chunk

        def record_within(*args):
            kept_within.append(moving_pairs(*args))
            return kept_within[-1]

        with mock.patch.multiple(
            dissonance,
            _CHUNK_ELEMENTS=chunk_elements(F_, G, rows),
            _cross_chunks=record_chunks,
            _moving_pairs=record_within,
        ):
            dissonance_curve(F_, G, t_lo, t_hi, steps, params)
        ts = np.geomspace(t_lo, t_hi, steps)
        # the chunks walk the steps in order, each with its own t values
        assert [first for first, *_ in chunks] == list(range(0, steps, rows))
        for first, t, _ in chunks:
            assert t[:, 0].tolist() == ts[first : first + rows].tolist()
        # one decision holds for whole chunks and at least 16 steps
        runs = [[chunks[0]]]
        for chunk in chunks[1:]:
            if chunk[2] is runs[-1][-1][2]:
                runs[-1].append(chunk)
            else:
                runs.append([chunk])
        for run in runs[:-1]:
            assert sum(t.size for _, t, _ in run) >= 16
        # every cross pair left out of a chunk is negligible at each of its
        # steps; a kept pair is (P, Q/b1) in its group, or (P, b1/(s1 P + Q))
        # when it is rising
        slope, offset = _S1 / params.chi_star, _S2 / params.chi_star
        for _, t, groups in chunks:
            kept = {key for group in groups for key in zip(*group.tolist())}
            for a in F_:
                for b in G:
                    P, Q = a / b, offset / _B1 / b
                    if not {(P, Q), (P, 1 / (P * (slope / _B1) + Q))} & kept:
                        for s in t[:, 0].tolist():
                            assert abs(pair_roughness(a, s * b, params)) <= SKIP_BOUND, (a, b, s)
        # and so is every pair within tF' left out of the whole sweep
        ((lower, dist),) = kept_within
        kept = set(zip(lower.tolist(), dist.tolist()))
        every = zip(*(column.tolist() for column in _upper_pairs(np.array(G), slope)))
        for (i, j), key in zip(zip(*np.triu_indices(len(G), k=1)), every):
            if key not in kept:
                for s in ts.tolist():
                    assert abs(pair_roughness(s * G[i], s * G[j], params)) <= SKIP_BOUND, (i, j, s)

    def test_wide_spectra_skip_most_pairs(self):
        # every cross pair of these spectra is past the cut for the whole
        # sweep, and so are the two far pairs within G
        F_ = [20.0 * k for k in range(1, 5)]
        G = [2000.0, 2100.0, 9000.0]
        slope, offset = _S1 / DEFAULT_PARAMS.chi_star, _S2 / DEFAULT_PARAMS.chi_star
        base, moving, ts = np.array(F_), np.array(G), np.geomspace(1.0, 1.5, 40)
        chunks = list(dissonance._cross_chunks(ts, base, moving, 8, slope, offset))
        assert [first for first, *_ in chunks] == [0, 8, 16, 24, 32]
        assert all(group.size == 0 for _, _, groups in chunks for group in groups)
        _, dist = dissonance._moving_pairs(moving, slope, offset, 1.0)
        assert dist.tolist() == [100.0]
        points = dissonance_curve(F_, G, 1.0, 1.5, 40)
        for p, want in zip(points, oracle_totals(F_, G, [p.t for p in points], DEFAULT_PARAMS)):
            assert_matches_oracle(p.dissonance, want, math.comb(7, 2))

    def test_skip_cut(self):
        # |kernel(x)| <= 10 e^(-3.51 x) falls below 2^-100 at x = 20.40
        assert _CUT == pytest.approx(20.40, abs=0.005)
        assert 10 * math.exp(-3.51 * _CUT) == pytest.approx(2.0**-100)

    # kernels outside the skip rule's conditions, which sweeps once had to
    # handle without skipping
    EDGE_PARAMS = {
        "no-fast-weight": {"weight_fast": 0.0},
        "no-slow-weight": {"weight_slow": 0.0},
        "silent": {"amplitude": 0.0},
        "rising-decay": {"decay_fast": 0.5},
        "negative-offset": {"curve_offset": -18.96},
    }

    @pytest.mark.parametrize("params", EDGE_PARAMS.values(), ids=EDGE_PARAMS.keys())
    @pytest.mark.parametrize(
        "F_, G",
        [
            ([262.0 * k for k in range(1, 7)], [262.0 * k for k in range(1, 7)]),
            (np.geomspace(20, 20000, 30).tolist(), np.geomspace(27, 17000, 25).tolist()),
            ([1000.0 * k for k in range(1, 9)], [1100.0 * k for k in range(1, 5)]),
        ],
        ids=["c4", "wide", "high"],
    )
    def test_edge_parameters_match_the_oracle_or_refuse(self, params, F_, G):
        # an edge kernel is refused when built, so no sweep meets it; the one
        # kernel a sweep can run agrees with the oracle on the same spectra
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            DissonanceParams(**params)
        points = dissonance_curve(F_, G, 1.0, 2.1, 40)
        pairs = math.comb(len(F_) + len(G), 2)
        for p, want in zip(points, oracle_totals(F_, G, [p.t for p in points], DEFAULT_PARAMS)):
            assert_matches_oracle(p.dissonance, want, pairs)

    def test_one_step_chunk_memory_is_linear_in_the_pairs(self):
        # 400 * 400 cross pairs overfill a chunk, so every chunk is one step
        # and every block 16; each block's mask and kept pairs are O(N*M)
        # (all pairs over a block would be 16 * N*M values per array)
        F_ = np.geomspace(20, 20000, 400).tolist()
        G = np.geomspace(25, 19000, 400).tolist()
        assert _chunk_rows(len(F_), len(G)) == 1
        tracemalloc.start()
        try:
            points = dissonance_curve(F_, G, 1.0, 2.1, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 20
        assert peak < 12 * len(F_) * len(G) * 8


@pytest.fixture(scope="module")
def seed_5_round(tmp_path_factory):
    """The benchmark's seed-5 ``roughness`` round: its jobs, in order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import jobs
    return jobs.build("roughness", 5, False, tmp_path_factory.mktemp("round"))


def recorded_groups(sweep):
    """Run ``sweep()``, and return the (rising, falling, straddling) pair
    counts of each chunk its cross pairs were grouped into."""
    counts, cross_chunks = [], dissonance._cross_chunks

    def record(*args):
        for chunk in cross_chunks(*args):
            counts.append(tuple(group.shape[1] for group in chunk[2]))
            yield chunk

    with mock.patch.object(dissonance, "_cross_chunks", record):
        sweep()
    return counts


class TestCrossGroups:
    """Cross pairs are held as coincidence points P = f/g and split per
    block into rising (P at or below its first t), falling (P at or above
    its last t) and straddling pairs, each with its own form of x."""

    def test_coincidences_on_block_edges_match_the_oracle(self):
        # 16 steps a chunk and a block; P = f/g is exact, as every g is a
        # power of 2: P = 1 on the first step (F and G share 128 and 256),
        # P on the last step of the first block and on the first step of the
        # second, and P = t_hi on the last step of the sweep
        ts = np.geomspace(1.0, 2.1, 48)
        G = [128.0, 256.0, 512.0]
        F_ = [128.0, 256.0, 128 * ts[15], 256 * ts[16], 512 * ts[47], 128 * ts[31]]
        assert ts[47] == 2.1 and all(f / g in ts for f, g in zip(F_[2:], [128, 256, 512, 128]))
        with mock.patch.object(dissonance, "_CHUNK_ELEMENTS", chunk_elements(F_, G, 16)):
            assert _chunk_rows(len(F_), len(G)) == 16
            points = dissonance_curve(F_, G, 1.0, 2.1, 48)
            counts = recorded_groups(lambda: dissonance_curve(F_, G, 1.0, 2.1, 48))
        assert [p.t for p in points] == ts.tolist()
        assert all(sum(group) > 0 for group in zip(*counts))
        for p, want in zip(points, oracle_totals(F_, G, ts.tolist(), DEFAULT_PARAMS)):
            assert_matches_oracle(p.dissonance, want, math.comb(len(F_) + len(G), 2))

    def test_seed_5_64_plus_64_sweep_uses_every_group(self, seed_5_round):
        (job,) = [job for job in seed_5_round if job.name == "64+64x500"]
        counts = recorded_groups(job.run)
        rising, falling, straddling = (sum(group) for group in zip(*counts))
        assert rising > 0 and falling > 0 and straddling > 0

    def test_kernel_values_per_seed_5_round(self, seed_5_round):
        # the split changes how a value is computed, not which are
        values, kernel_sum = [], dissonance._kernel_sum

        def count(y, *args):
            values.append(y.size)
            return kernel_sum(y, *args)

        with mock.patch.object(dissonance, "_kernel_sum", count):
            for job in seed_5_round:
                job.run()
        assert sum(values) == 10_604_592


class TestDissonanceCurve:
    @settings(max_examples=150, deadline=None)
    @given(sweeps(), st.data())
    def test_matches_all_pairs_sum(self, sweep, data):
        # t starts at 1, so shared partials coincide exactly on the first row;
        # the rows on both sides of the first chunk boundary are always checked.
        # Each kernel value is a difference of two exponentials weighted by 5,
        # and numpy's exp and math.exp may differ by an ulp, so a nearly
        # coincident pair can be off by ~1e-15 absolute whatever the summation
        # order: that, not the relative bound, covers totals of that size.
        F_, G, t_hi, steps, chi_star = sweep
        pairs = math.comb(len(F_) + len(G), 2)
        params = DissonanceParams(chi_star=chi_star)
        points = dissonance_curve(F_, G, 1.0, t_hi, steps, params)
        assert [p.t for p in points] == np.geomspace(1.0, t_hi, steps).tolist()
        rows = _chunk_rows(len(F_), len(G))
        picked = {0, rows - 1, rows, steps - 1, data.draw(st.integers(0, steps - 1))}
        for i in sorted(i for i in picked if i < steps):
            t, d = points[i].t, points[i].dissonance
            want = all_pairs_roughness(F_ + [t * g for g in G], params)
            assert math.isclose(d, want, rel_tol=1e-12, abs_tol=1e-14 * pairs), (i, t, d, want)

    def test_sweep_memory_is_bounded_by_the_chunk(self):
        # all pairs at once would need 1000 * 256^2 doubles (0.5 GiB) per array
        F_ = [110.0 * k for k in range(1, 129)]
        G = [131.0 * k for k in range(1, 129)]
        tracemalloc.start()
        try:
            points = dissonance_curve(F_, G, 1.0, 2.1, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 1000
        assert peak < 32 * 2**20

    def test_sharp_minima_align_with_shared_partial_intervals(self):
        points = dissonance_curve(C4, C4, 1.0, 2.1, 2000)
        values = [p.dissonance for p in points]
        ts = [p.t for p in points]
        minima = interior_minima(values)
        for target in (6 / 5, 5 / 4, 4 / 3, 3 / 2, 5 / 3, 2.0):
            target_cents = 1200 * math.log2(target)
            nearest = min(abs(1200 * math.log2(ts[i]) - target_cents) for i in minima)
            assert nearest < 5.0

    def test_every_shared_partial_interval_sits_on_a_minimum(self):
        # every pairwise-ratio interval of the spectrum inside the sweep is
        # within one sample step of some local minimum (boundaries count)
        points = dissonance_curve(C4, C4, 1.0, 2.1, 2000)
        values = [p.dissonance for p in points]
        ts = [p.t for p in points]
        step_cents = 1200 * math.log2(ts[1] / ts[0])
        minima = set(interior_minima(values))
        if values[0] <= values[1]:
            minima.add(0)
        if values[-1] <= values[-2]:
            minima.add(len(values) - 1)
        targets = [t for t in affinitive_intervals(C4, C4) if 1 <= t <= F(21, 10)]
        assert len(targets) == 7
        for target in targets:
            target_cents = 1200 * math.log2(float(target))
            nearest = min(abs(1200 * math.log2(ts[i]) - target_cents) for i in minima)
            assert nearest <= step_cents

    def test_single_partials_rise_then_fall(self):
        single = harmonic_set(262, 1)
        points = dissonance_curve(single, single, 1.0, 4.0, 1000)
        values = [p.dissonance for p in points]
        peak = values.index(max(values))
        assert 0 < peak < len(values) - 1
        assert all(a <= b for a, b in zip(values[: peak + 1], values[1 : peak + 1]))
        assert all(a >= b for a, b in zip(values[peak:], values[peak + 1 :]))
        assert not interior_minima(values)

    def test_coarse_resolution_flattens_sharp_minima(self):
        # at chi_star = 0.003 the roughness kernel stretches far beyond the
        # partial spacing and the coincidence dips vanish outright
        normal = [p.dissonance for p in dissonance_curve(C4, C4, 1.0, 2.1, 2000)]
        coarse = [
            p.dissonance
            for p in dissonance_curve(C4, C4, 1.0, 2.1, 2000, DissonanceParams(chi_star=0.003))
        ]
        sharpest = max(minima_prominences(normal))
        flattest = max(minima_prominences(coarse), default=0.0)
        assert sharpest > 1.0
        assert flattest < sharpest / 10

    def test_exchange_symmetric_for_equal_sets(self):
        a = dissonance_curve(C4, C4, 1.0, 2.0, 50)
        b = dissonance_curve(C4, C4, 1.0, 2.0, 50)
        assert a == b

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            dissonance_curve(C4, C4, 2.0, 1.0, 10)
        with pytest.raises(ValueError):
            dissonance_curve(C4, C4, 0.0, 2.0, 10)
        with pytest.raises(ValueError):
            dissonance_curve(C4, C4, 1.0, 2.0, 1)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            dissonance_curve([], C4, 1.0, 2.0, 10)

    def test_steps_above_the_table_cap_rejected(self):
        dissonance_curve([262.0], [262.0], 1.0, 2.0, 2**16)  # far inside the cap
        with pytest.raises(ValueError, match="4194305 steps exceed the limit of 4194304"):
            dissonance_curve([262.0], [262.0], 1.0, 2.0, 2**22 + 1)

    @pytest.mark.parametrize(
        "contextual, complementary",
        [([math.inf], [1.0]), ([1.0], [math.nan]), ([F(10) ** 400], [1.0]), ([1.0], [10**400])],
    )
    def test_partials_outside_the_float_range_rejected(self, contextual, complementary):
        with pytest.raises(ValueError, match="partial 1 of the"):
            dissonance_curve(contextual, complementary, 1, 2, 2)

    @pytest.mark.parametrize("t_lo, t_hi", [(1.0, math.inf), (math.nan, 2.0), (1.0, 1e307)])
    def test_non_finite_sweep_rejected(self, t_lo, t_hi):
        with pytest.raises(ValueError):
            dissonance_curve([262.0], [262.0], t_lo, t_hi, 2)

    @pytest.mark.filterwarnings("error")
    def test_pair_without_a_coincidence_point_rejected_without_a_warning(self):
        # 262 / 1e-320 and (s2/chi_star) / 1e-320 both pass the float range,
        # so the cross pair's x is NaN
        with pytest.raises(ValueError, match="^dissonance cannot be negative or NaN$"):
            dissonance_curve([262.0], [1e-320], 1.0, 2.0, 3)

    @pytest.mark.parametrize("totals", [[0.5, -1.0], [0.5, math.nan]], ids=["negative", "nan"])
    def test_negative_or_nan_totals_rejected(self, totals):
        with pytest.raises(ValueError) as refusal:
            _checked(np.array(totals))
        assert str(refusal.value) == "dissonance cannot be negative or NaN"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_totals_rejected_without_a_warning(self):
        # where pair_roughness would raise OverflowError
        with pytest.raises(ValueError) as refusal:
            _checked(np.array([0.5, math.inf]))
        assert str(refusal.value) == "dissonance exceeds the float range"


class TestSpectrumRoughness:
    def test_matches_pairwise_sum(self):
        freqs = [262.0, 524.0, 790.0]
        assert math.isclose(spectrum_roughness(freqs), all_pairs_roughness(freqs), rel_tol=1e-12)

    def test_single_partial_has_no_pairs(self):
        assert spectrum_roughness([262.0]) == 0.0

    @pytest.mark.parametrize("total", [-1.0, math.nan], ids=["negative", "nan"])
    def test_negative_or_nan_total_rejected_as_in_a_sweep(self, total):
        # no spectrum of positive partials sums to these: the kernel stands in
        with mock.patch.object(dissonance, "_kernel_sum", return_value=np.float64(total)):
            with pytest.raises(ValueError, match="^dissonance cannot be negative or NaN$"):
                spectrum_roughness([262.0, 524.0])

    def test_non_finite_partial_rejected(self):
        with pytest.raises(ValueError, match="partial 2 of the spectrum"):
            spectrum_roughness([1.0, math.nan])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(min_value=F(1, 10**6), max_value=10**6), min_size=1, max_size=12))
    def test_a_set_converts_as_its_partials_do(self, values):
        # the lattice shortcut rounds each partial once, as float() does
        fs = FrequencySet(values)
        assert dissonance._as_float_array(fs, "spectrum").tolist() == [float(f) for f in fs]

    def test_partial_below_the_float_range_is_named(self):
        with pytest.raises(ValueError, match=r"^partial 1 of the spectrum \(3\.000e-400\) is below"):
            spectrum_roughness(harmonic_set(F(3, 10**400), 1) | harmonic_set(1, 1))

    def test_pairs_above_cap_are_refused(self):
        # 2,897 partials make 4,194,856 pairs, just above the cap; no
        # partial is converted to a float before the refusal
        with mock.patch("toneset.dissonance._as_float_array") as spy:
            with pytest.raises(ValueError, match="^4194856 partial pairs from 2897 partials exceed"):
                spectrum_roughness(harmonic_set(1, 2897))
            with pytest.raises(ValueError, match="^4206450 partial pairs from 2900 [+] 1 partials"):
                dissonance_curve(harmonic_set(1, 2900), iter([1.0]))
        assert spy.call_count == 0
        assert _check_pairs(2896) is None and _check_pairs(1400, 1400) is None
        with pytest.raises(ValueError, match="^5778300 partial pairs from 1700 [+] 1700"):
            _check_pairs(1700, 1700)

    def test_curvepoint_rejects_negative(self):
        with pytest.raises(ValueError):
            CurvePoint(1.0, -0.1)
