import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toneset import (
    affinitive_intervals,
    CurvePoint,
    DEFAULT_PARAMS,
    DissonanceParams,
    dissonance_curve,
    harmonic_set,
    pair_roughness,
    spectrum_roughness,
)
from toneset.dissonance import _chunk_rows

C4 = harmonic_set(262, 6)


def all_pairs_roughness(freqs, params=DEFAULT_PARAMS):
    """Reference: pair_roughness summed over every unordered pair."""
    return math.fsum(
        pair_roughness(a, b, params) for i, a in enumerate(freqs) for b in freqs[i + 1 :]
    )


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
        p = DEFAULT_PARAMS
        x_m = math.log(p.decay_slow / p.decay_fast) / (p.decay_fast - p.decay_slow)
        predicted = x_m * (p.curve_slope * 400.0 + p.curve_offset) / p.chi_star
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


class TestSpectrumRoughness:
    def test_matches_pairwise_sum(self):
        freqs = [262.0, 524.0, 790.0]
        assert math.isclose(spectrum_roughness(freqs), all_pairs_roughness(freqs), rel_tol=1e-12)

    def test_single_partial_has_no_pairs(self):
        assert spectrum_roughness([262.0]) == 0.0

    def test_non_finite_partial_rejected(self):
        with pytest.raises(ValueError, match="partial 2 of the spectrum"):
            spectrum_roughness([1.0, math.nan])

    def test_curvepoint_rejects_negative(self):
        with pytest.raises(ValueError):
            CurvePoint(1.0, -0.1)
