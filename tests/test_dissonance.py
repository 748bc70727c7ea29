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
from toneset import dissonance, emit_figure_data
from toneset.figures import _c4, _inharmonic
from toneset.dissonance import _B1, _B2, _CUT, _MIN_RUN, _S1, _S2, _check_pairs, _checked, _chunk_rows
from test_pinned_outputs import FIGURE_PARAMS

C4 = harmonic_set(262, 6)


def all_pairs_roughness(freqs, params=DEFAULT_PARAMS):
    """Reference: pair_roughness summed over every unordered pair."""
    return math.fsum(
        pair_roughness(a, b, params) for i, a in enumerate(freqs) for b in freqs[i + 1 :]
    )


def oracle_totals(F_, G, ts, params):
    """all_pairs_roughness at each t."""
    return [all_pairs_roughness(list(F_) + [t * g for g in G], params) for t in ts]


def float_rows(F_, G):
    """Steps per chunk of a sweep of two float lists: they have no runs, so
    every pair within G is a kernel value."""
    return _chunk_rows(len(F_) * len(G), math.comb(len(G), 2))


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
    rows = float_rows(F_, G)
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


@st.composite
def wide_run_sweeps(draw):
    """``wide_sweeps`` with G a FrequencySet of one to four runs of
    multipliers up to 400, from 20-200 Hz up, so that a sweep cuts some of
    its pairs and entries."""
    F_, _, t_lo, t_hi, rows, steps, params = draw(wide_sweeps())
    starts = draw(st.lists(st.integers(1, 400), min_size=1, max_size=4))
    lengths = draw(st.lists(st.integers(1, 10), min_size=len(starts), max_size=len(starts)))
    fundamental = F(draw(st.integers(200, 2000)), 10)
    G = FrequencySet(fundamental * m for s, n in zip(starts, lengths) for m in range(s, s + n))
    return F_, G, t_lo, t_hi, rows, steps, params


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
            assert float_rows(F_, G) == rows
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
    @given(wide_sweeps() | wide_run_sweeps())
    def test_every_skipped_pair_is_below_the_bound(self, sweep):
        F_, G, t_lo, t_hi, rows, steps, params = sweep
        chunks, within = [], []
        cross_chunks, near = dissonance._cross_chunks, dissonance._near

        def record_chunks(*args):
            for chunk in cross_chunks(*args):
                chunks.append(chunk)
                yield chunk

        def record_within(*args):
            within.append((args, near(*args)))
            return within[-1][1]

        with mock.patch.multiple(
            dissonance,
            _chunk_rows=lambda cross, within: rows,
            _cross_chunks=record_chunks,
            _near=record_within,
            _RUN_VALUES=0,
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
                    b = float(b)
                    P, Q = a / b, offset / _B1 / b
                    if not {(P, Q), (P, 1 / (P * (slope / _B1) + Q))} & kept:
                        for s in t[:, 0].tolist():
                            assert abs(pair_roughness(a, s * b, params)) <= SKIP_BOUND, (a, b, s)
        # within G, before and after the cut: pairs that stand alone, then
        # entries, each a head pair that stands for a run of ``lengths``
        # pairs; together they hold every pair once
        (((lower, dist, gaps, lengths, _), (kept_lower, kept_dist, kept_gaps, _)),) = within
        assert lower.size - gaps.size + lengths.sum() == math.comb(len(G), 2)
        keys = list(zip(lower.tolist(), dist.tolist()))
        entries = dict(zip(keys[len(keys) - gaps.size :], lengths.tolist()))
        kept = list(zip(kept_lower.tolist(), kept_dist.tolist()))
        kept_singles, kept_heads = set(kept[: len(kept) - kept_gaps.size]), set(kept[len(kept) - kept_gaps.size :])
        G = [float(g) for g in G]  # a FrequencySet's partials ascend

        def key(i, k):  # pair (i, k) as the sweep lays it
            return slope * min(G[i], G[k]), abs(G[k] - G[i])

        # every pair is kept, alone or in its entry, or else its entry's head
        # pair (and so the pair itself) is negligible at every step
        for i, k in zip(*np.triu_indices(len(G), k=1)):
            head = next((h for h in range(k, i, -1) if h + entries.get(key(i, h), 0) > k), None)
            if key(i, k) in kept_singles if head is None else key(i, head) in kept_heads:
                continue
            for s in ts.tolist():
                for j in {k if head is None else head, k}:
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
        _, dist, _, _ = dissonance._near(*dissonance._within(moving, None, slope, offset), offset)
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
        assert float_rows(F_, G) == 1
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
            assert float_rows(F_, G) == 16
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
        # the split of cross pairs changes how a value is computed, not
        # which are; runs change which: each entry's head pair stands for
        # its run (10,604,592 values when every pair within a set was one)
        values, kernel_sum = [], dissonance._kernel_sum

        def count(y, *args):
            values.append(y.size)
            return kernel_sum(y, *args)

        with mock.patch.object(dissonance, "_kernel_sum", count):
            for job in seed_5_round:
                job.run()
        assert sum(values) == 6_762_225


# one scale for both sets of a sweep: a partial below about 4e-307 Hz
# against an ordinary one has no coincidence point (see
# test_pair_without_a_coincidence_point_rejected_without_a_warning)
SCALES = st.sampled_from([F(1), F(1, 10**300), F(3, 10**310), F(10**300)])


@st.composite
def run_sets(draw, scale, max_size=20):
    """FrequencySets a*N whose multipliers hold runs, or may: harmonic
    (1..n), sparse, or a few runs, from one partial up; the fundamental a
    is 20-2000 Hz times ``scale``."""
    shape = draw(st.sampled_from(["harmonic", "sparse", "runs"]))
    if shape == "harmonic":
        N = range(1, draw(st.integers(1, max_size)) + 1)
    elif shape == "sparse":
        N = draw(st.lists(st.integers(1, 200), min_size=1, max_size=max_size, unique=True))
    else:
        N = set()
        for start in draw(st.lists(st.integers(1, 300), min_size=1, max_size=3)):
            N |= set(range(start, start + draw(st.integers(1, max_size // 3))))
    a = scale * draw(st.fractions(20, 2000, max_denominator=100))
    return FrequencySet(a * n for n in N)


@st.composite
def runless_sets(draw):
    """FrequencySets whose multipliers, from 1 up, come in blocks of fewer
    than _MIN_RUN consecutive ones, at least 2 apart."""
    lengths = draw(st.lists(st.integers(1, _MIN_RUN - 1), min_size=1, max_size=8))
    gaps = draw(st.lists(st.integers(2, 30), min_size=len(lengths), max_size=len(lengths)))
    N, start = [], 1
    for length, gap in zip(lengths, gaps):
        N += range(start, start + length)
        start += length - 1 + gap
    a = draw(st.fractions(20, 2000, max_denominator=100))
    return FrequencySet(a * n for n in N)


# each curve part of a figure: its figure, the set swept against itself
# and chi_star
CURVE_PARTS = {
    "fig4_2": ("fig4_2", _inharmonic, 0.24),
    "fig4_3_chi_0_24": ("fig4_3", _c4, 0.24),
    "fig4_3_chi_0_03": ("fig4_3", _c4, 0.03),
    "fig4_3_chi_0_003": ("fig4_3", _c4, 0.003),
    "fig5_1_dissonance": ("fig5_1", _c4, 0.24),
}


def seeking_runs():
    """A context in which every sum seeks the runs of its sets, however few
    its pair values."""
    return mock.patch.object(dissonance, "_RUN_VALUES", 0)


class TestRuns:
    """The pairs of a partial with a run of consecutive multipliers above it
    are summed as one entry, in closed form; the sums still match the
    all-pairs oracle."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sweep_of_sets_with_runs_matches_the_oracle(self, data):
        scale = data.draw(SCALES)
        F_, G = data.draw(run_sets(scale)), data.draw(run_sets(scale))
        t_lo = data.draw(st.sampled_from([1.0, 0.5, 0.93]))
        t_hi = t_lo * data.draw(st.floats(1.05, 4.0))
        steps = data.draw(st.integers(2, 40))
        params = DissonanceParams(chi_star=data.draw(st.sampled_from([0.24, 0.003, 5.0, 0.03, 1.0])))
        with seeking_runs():
            points = dissonance_curve(F_, G, t_lo, t_hi, steps, params)
        assert [p.t for p in points] == np.geomspace(t_lo, t_hi, steps).tolist()
        base, moving = [float(f) for f in F_], [float(g) for g in G]
        picked = sorted({0, steps - 1, data.draw(st.integers(0, steps - 1))})
        pairs = math.comb(len(base) + len(moving), 2)
        for i, want in zip(picked, oracle_totals(base, moving, [points[i].t for i in picked], params)):
            assert_matches_oracle(points[i].dissonance, want, pairs)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_spectrum_of_a_set_with_runs_matches_the_oracle(self, data):
        fs = data.draw(run_sets(data.draw(SCALES), max_size=40))
        params = DissonanceParams(chi_star=data.draw(st.sampled_from([0.24, 0.003, 5.0, 0.03, 1.0])))
        partials = [float(f) for f in fs]
        want = all_pairs_roughness(partials, params)
        with seeking_runs():
            assert_matches_oracle(spectrum_roughness(fs, params), want, math.comb(len(partials), 2))

    @settings(max_examples=50, deadline=None)
    @given(runless_sets(), runless_sets(), st.sampled_from([0.24, 0.003, 5.0]))
    def test_a_set_without_runs_sums_as_its_float_partials(self, F_, G, chi_star):
        params = DissonanceParams(chi_star=chi_star)
        base, moving = [float(f) for f in F_], [float(g) for g in G]
        with seeking_runs():
            assert dissonance_curve(F_, G, 1.0, 2.1, 50, params) == dissonance_curve(base, moving, 1.0, 2.1, 50, params)
            assert spectrum_roughness(F_, params) == spectrum_roughness(base, params)

    def test_multipliers_from_2_53_are_in_no_run(self):
        # as floats, 2^53 + 1 is 2^53 and 2^53 + 3 is 2^53 + 4, so these
        # multipliers would make a false run of 5; at this chi_star every
        # unit passes _MIN_UNIT, so only that rule keeps them pairs
        fs = FrequencySet(F(100, 2**53) * m for m in range(2**53 - 4, 2**53 + 5))
        params = DissonanceParams(chi_star=1e16)
        partials = [float(f) for f in fs]
        with seeking_runs():
            assert spectrum_roughness(fs, params) == spectrum_roughness(partials, params)
            assert dissonance_curve(fs, fs, 1.0, 2.0, 5, params) == dissonance_curve(partials, partials, 1.0, 2.0, 5, params)

    def test_runs_are_sought_from_run_values_on(self):
        fs = harmonic_set(1, 8)
        least = -(-dissonance._RUN_VALUES // math.comb(8, 2))  # steps
        assert dissonance._runs(fs, least - 1) is None
        assert dissonance._runs(fs, least) is not None
        # so a C4_6 curve of 2,000 steps sums as its float partials
        partials = [float(f) for f in C4]
        assert dissonance_curve(C4, C4, 1.0, 2.1, 2000) == dissonance_curve(partials, partials, 1.0, 2.1, 2000)

    @pytest.mark.parametrize("part", list(CURVE_PARTS))
    def test_figure_curves_match_the_oracle(self, part):
        figure_id, spectrum, chi_star = CURVE_PARTS[part]
        rows = [line.split(",") for line in emit_figure_data(figure_id, FIGURE_PARAMS)[part].splitlines()[1:]]
        assert len(rows) == FIGURE_PARAMS["steps"]
        picked = rows[::23] + rows[-1:]
        partials = [float(f) for f in spectrum()]
        params = DissonanceParams(chi_star=chi_star)
        wants = oracle_totals(partials, partials, [float(t) for t, _, _ in picked], params)
        for (_, _, d), want in zip(picked, wants):
            assert_matches_oracle(float(d), want, math.comb(2 * len(partials), 2))


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
        rows = float_rows(F_, G)
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

    def test_exact_bounds_give_the_points_of_float_bounds(self):
        assert dissonance_curve(C4, C4, F(1), F(21, 10), 3) == dissonance_curve(C4, C4, 1.0, 2.1, 3)
        assert dissonance_curve(C4, C4, 1, 2, 3) == dissonance_curve(C4, C4, 1.0, 2.0, 3)

    @pytest.mark.parametrize(
        "t_lo, t_hi, message",
        [
            (1, 10**400, "^sweep bounds exceed the float range$"),
            (1, F(10**400, 3), "^sweep bounds exceed the float range$"),
            (F(1, 10**400), 2, "^invalid sweep range"),  # 0.0 as a float
            (F(1), 1 + F(1, 10**20), "^invalid sweep range"),  # an empty range as floats
        ],
    )
    def test_exact_bounds_outside_the_floats_rejected(self, t_lo, t_hi, message):
        with pytest.raises(ValueError, match=message):
            dissonance_curve(C4, C4, t_lo, t_hi, 3)

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

    def test_curvepoint_rejects_nan_and_keeps_negative_zero(self):
        with pytest.raises(ValueError, match="^dissonance cannot be negative or NaN$"):
            CurvePoint(1.0, math.nan)
        assert CurvePoint(1.0, -0.0) == (1.0, 0.0)
