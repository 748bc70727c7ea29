"""Roughness-based dissonance curves for comparison against rational tunings.

Pairwise roughness follows the Plomp & Levelt (1965) critical-band data in
the parameterised form popularised by Sethares ("Tuning, Timbre, Spectrum,
Scale"): two exponentials whose horizontal scale tracks the critical band of
the lower partial. ``chi_star`` is the interval fraction of maximum
roughness; shrinking it models a coarser auditory resolution and flattens
the curve's sharp minima.

Those sharp minima appear where partials of the two sounds coincide, i.e.
exactly at the nonzero-affinity intervals, which is what this module is here
to check. Amplitudes are uniform (spectra are bare frequency sets), and the
contract is qualitative: minima locations, not bit-exact curve values.

A sweep of F (N partials) against tF' (M partials) sums the t-independent
pairs within F once and, per step, evaluates at most the N*M cross pairs and
the M(M-1)/2 pairs within tF'. Every pair goes through one kernel function
of x = d / (fmin * s1/chi_star + s2/chi_star): a cross pair's x takes seven
numpy passes (one of them a divide), and a pair within tF', whose d and fmin
are those of F' scaled by t, two: x = d / (fmin * s1/chi_star + s2/chi_star/t)
with both terms fixed for the sweep. The kernel adds two ``exp``s and six
passes, and applies a^2 once per row total. Steps are walked in chunks of
about 2^16 pair values through three reused buffers, so memory is bounded by
the chunk and the pair arrays, not by steps * (N+M)^2.

Pairs that cannot change a total are not evaluated. With b1, b2 < 0 and
s1, s2 >= 0 (not both 0), |kernel(x)| <= a^2 (|c1| + |c2|) e^(max(b1, b2) x),
which is below 2^-100 past a cut of x = 20.4 at the defaults. A cross pair
is left out of a block of whole chunks and at least 16 steps when its x is
past the cut at every t of the block; a pair within tF', whose x grows with
t, is left out of the whole sweep when it is past the cut at the first step.
A step has at most 2^22 pairs, so a total loses at most 2^-78 (3.3e-24).
For any other parameters (a decay >= 0, a negative s1 or s2, both 0, or
a^2 (|c1| + |c2|) zero or not finite) the cut is infinite and nothing is
skipped. Far pairs are also the slow ones: ``exp`` of an argument below
about -708 costs ten to a hundred times an ordinary one.

Summation order and the skip differ from an all-pairs sum only in rounding:
curves agree with it to 1e-12 relative (the last digits of a ``dissonance``
value), and to ~1e-15 absolute per pair for totals too small for that,
where one ulp of ``exp`` in a nearly coincident pair dominates.

This is the one floating-point corner of the package; nothing here feeds
back into the rational layer.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sized, Union

import numpy as np

from .core import FrequencySet, _excerpt, _scientific, format_ratio
from .tuning import MAX_TABLE_ENTRIES

__all__ = [
    "DissonanceParams",
    "DEFAULT_PARAMS",
    "CurvePoint",
    "pair_roughness",
    "spectrum_roughness",
    "dissonance_curve",
]


@dataclass(frozen=True)
class DissonanceParams:
    """Constants of the pairwise roughness kernel.

    roughness(f1, f2) = a^2 * (c1 * exp(b1*s*d) + c2 * exp(b2*s*d)) with
    d = |f2 - f1| and s = chi_star / (s1 * min(f1, f2) + s2).
    """

    chi_star: float = 0.24  # interval fraction of maximum roughness
    curve_slope: float = 0.0207  # s1: critical-band growth per Hz
    curve_offset: float = 18.96  # s2: critical-band floor in Hz
    decay_fast: float = -3.51  # b1
    decay_slow: float = -5.75  # b2
    weight_fast: float = 5.0  # c1
    weight_slow: float = -5.0  # c2
    amplitude: float = 1.0  # uniform amplitude convention

    def __post_init__(self) -> None:
        if not (math.isfinite(self.chi_star) and self.chi_star > 0):
            raise ValueError(f"chi_star must be finite and positive, not {self.chi_star}")


DEFAULT_PARAMS = DissonanceParams()

# Values per temporary array in a sweep: the t grid is walked in chunks of
# steps small enough that each temporary stays cache-sized and memory does
# not grow with the number of steps.
_CHUNK_ELEMENTS = 1 << 16


class CurvePoint(namedtuple("CurvePoint", "t dissonance")):
    """One sample of a sweep: the interval t and the roughness there.

    A tuple, so a sweep of thousands of steps builds its points cheaply;
    ``dissonance_curve`` checks its totals once, and builds its points with
    ``tuple.__new__``, in C and without the check here.
    """

    __slots__ = ()

    def __new__(cls, t: float, dissonance: float) -> "CurvePoint":
        if dissonance < 0:
            raise ValueError("dissonance cannot be negative")
        return super().__new__(cls, t, dissonance)


def pair_roughness(
    f1: float, f2: float, params: DissonanceParams = DEFAULT_PARAMS
) -> float:
    """Roughness of two sine partials: 0 at coincidence, peaked nearby.

    The interior maximum sits at the chi_star-governed fraction of the lower
    frequency's critical band and the value tails off to zero as the
    frequencies separate.
    """
    if f1 <= 0 or f2 <= 0:
        raise ValueError("frequencies must be positive")
    spread = params.chi_star / (params.curve_slope * min(f1, f2) + params.curve_offset)
    x = spread * abs(f2 - f1)
    gain = params.amplitude * params.amplitude
    return gain * (
        params.weight_fast * math.exp(params.decay_fast * x)
        + params.weight_slow * math.exp(params.decay_slow * x)
    )


@np.errstate(over="ignore")  # an overflowing sum is refused by _checked
def _kernel_sum(
    x: np.ndarray, params: DissonanceParams, slow: Optional[np.ndarray] = None
) -> np.ndarray:
    """Kernel summed over the last axis, for pairs given by their
    x = chi_star * d / (s1 * fmin + s2); ``x`` is overwritten, and so is
    ``slow``, scratch space of x's shape."""
    slow = np.multiply(x, params.decay_slow, out=slow)
    np.exp(slow, out=slow)
    slow *= params.weight_slow
    x *= params.decay_fast
    np.exp(x, out=x)
    x *= params.weight_fast
    x += slow
    return params.amplitude * params.amplitude * x.sum(axis=-1)


def _upper_pairs(freqs: np.ndarray, slope: float) -> tuple[np.ndarray, np.ndarray]:
    """``slope`` times the lower frequency, and the distance, of every
    unordered pair of partials: x = distance / (that + s2/chi_star)."""
    i, j = np.triu_indices(freqs.size, k=1)
    return slope * np.minimum(freqs[i], freqs[j]), np.abs(freqs[j] - freqs[i])


def _skip_cut(params: DissonanceParams) -> float:
    """x beyond which every kernel value is below 2^-100: with b1, b2 < 0
    and s1, s2 >= 0 (not both 0), |kernel(x)| <= a^2 (|c1| + |c2|)
    e^(max(b1, b2) x). Infinite, so that nothing is skipped, for any other
    parameters."""
    p = params
    bound = p.amplitude * p.amplitude * (abs(p.weight_fast) + abs(p.weight_slow))
    if not (
        p.decay_fast < 0 and p.decay_slow < 0 and p.curve_slope >= 0 and p.curve_offset >= 0
        and p.curve_slope + p.curve_offset > 0  # else a coincident pair's x is 0/0
        and 0 < bound < math.inf
    ):
        return math.inf
    return (math.log(bound) + 100 * math.log(2)) / -max(p.decay_fast, p.decay_slow)


def _moving_pairs(
    moving: np.ndarray, slope: float, offset: float, t_lo: float, cut: float
) -> tuple[np.ndarray, np.ndarray]:
    """``_upper_pairs`` of F' less those past the cut from t_lo on: within
    tF', x = distance / (slope * lower + offset/t) grows with t whenever the
    cut is finite, so the first step decides a pair for the whole sweep."""
    lower, dist = _upper_pairs(moving, slope)
    near = ~(dist / (lower + offset / t_lo) > cut)  # a NaN x is kept, to be refused
    return (lower, dist) if near.all() else (lower[near], dist[near])


def _cross_chunks(
    ts: np.ndarray, base: np.ndarray, moving: np.ndarray, rows: int, slope: float,
    offset: float, cut: float,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Each chunk of ``rows`` steps as its first index, its t column and
    the partials f, g of the cross pairs (f, t*g) that can matter there.

    A cross pair has x <= ``cut`` only for t in a window [t1, t2]: above
    t = f/g, x = (t*g - f) / (slope * f + offset) grows with t, and below
    it x = (f - t*g) / (slope * t*g + offset) shrinks with t. Pairs are
    decided once per block of whole chunks and at least 16 steps: a pair is
    kept when its window meets the block's t range (a NaN end keeps it too),
    and the pair arrays are not copied when every pair is.
    """
    # flat, so each row of a chunk is one long run
    cross_f, cross_g = np.repeat(base, moving.size), np.tile(moving, base.size)
    t_from, t_to = -math.inf, math.inf  # an infinite cut keeps every pair
    if cut < math.inf:
        reach, stretch = cut * offset, 1 + cut * slope
        t_from = (cross_f - reach) / (cross_g * stretch)
        t_to = (cross_f * stretch + reach) / cross_g
    block = rows * -(-16 // rows)
    for start in range(0, ts.size, block):
        stop = min(start + block, ts.size)
        far = t_from > ts[stop - 1]
        far |= t_to < ts[start]
        f, g = (cross_f[~far], cross_g[~far]) if far.any() else (cross_f, cross_g)
        for first in range(start, stop, rows):
            yield first, ts[first : min(first + rows, stop), None], f, g


def _chunk_rows(n: int, m: int) -> int:
    """Sweep steps per chunk for n fixed and m moving partials: no per-chunk
    temporary holds more than _CHUNK_ELEMENTS values unless one step does."""
    return max(1, _CHUNK_ELEMENTS // max(n * m, m * (m - 1) // 2))


def _as_float_array(freqs: Union[FrequencySet, Iterable[float]], role: str) -> np.ndarray:
    values = []
    for index, f in enumerate(freqs, 1):
        try:
            x = float(f)
        except OverflowError:
            raise ValueError(
                f"partial {index} of the {role} ({_scientific(Fraction(f))}) exceeds the float range"
            ) from None
        if not math.isfinite(x):
            raise ValueError(f"partial {index} of the {role} is {x}, not a finite frequency")
        if x == 0 and f > 0:
            raise ValueError(
                f"partial {index} of the {role} ({_scientific(Fraction(f))}) is below the float range"
            )
        values.append(x)
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty frequency set")
    if np.any(arr <= 0):
        raise ValueError("frequencies must be positive")
    return arr


def _sized(freqs: Union[FrequencySet, Iterable[float]]) -> Union[FrequencySet, Sized]:
    """``freqs``, or its items in a list when it cannot tell its length."""
    return freqs if isinstance(freqs, Sized) else list(freqs)


def _check_pairs(n: int, m: int = 0) -> None:
    """Refuse a sum over more than ``MAX_TABLE_ENTRIES`` partial pairs (n
    fixed and m moving partials, or one spectrum of n when m is 0); the
    callers ask before building any array."""
    count = n * m + n * (n - 1) // 2 + m * (m - 1) // 2
    if count > MAX_TABLE_ENTRIES:
        sizes = format_ratio(n) + (f" + {format_ratio(m)}" if m else "")
        raise ValueError(
            f"{format_ratio(count, label='pair count')} partial pairs from {sizes} partials "
            f"exceed the limit of {MAX_TABLE_ENTRIES}"
        )


def spectrum_roughness(
    freqs: Union[FrequencySet, Iterable[float]],
    params: DissonanceParams = DEFAULT_PARAMS,
) -> float:
    """Total roughness of one spectrum: sum over all unordered partial pairs,
    of which more than ``MAX_TABLE_ENTRIES`` raise ValueError, as does a
    total that is negative, NaN or past the float range."""
    freqs = _sized(freqs)
    _check_pairs(len(freqs))
    slope, offset = params.curve_slope / params.chi_star, params.curve_offset / params.chi_star
    lower, dist = _upper_pairs(_as_float_array(freqs, "spectrum"), slope)
    return float(_checked(_kernel_sum(dist / (lower + offset), params)))


def dissonance_curve(
    contextual: Union[FrequencySet, Iterable[float]],
    complementary: Union[FrequencySet, Iterable[float]],
    t_lo: float = 1.0,
    t_hi: float = 2.1,
    steps: int = 2000,
    params: DissonanceParams = DEFAULT_PARAMS,
) -> list[CurvePoint]:
    """Sweep the complementary set across [t_lo, t_hi] and sum roughness.

    Samples are spaced geometrically (uniform in cents). At each sampled t
    the roughness of the combined spectrum F u tF' is summed over all
    partial pairs, within-set pairs included. Non-finite partials or bounds,
    a top that carries a partial past the float range, more than
    ``MAX_TABLE_ENTRIES`` steps or partial pairs (the row cap of tuning
    tables), and a total that is negative, NaN or past the float range
    raise ValueError.
    """
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and 0 < t_lo < t_hi):
        raise ValueError(f"invalid sweep range [{t_lo}, {t_hi}]")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if steps > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"{_excerpt(format_ratio(steps, label='step count'))} steps exceed the limit of "
            f"{MAX_TABLE_ENTRIES}"
        )
    contextual, complementary = _sized(contextual), _sized(complementary)
    _check_pairs(len(contextual), len(complementary))
    base = _as_float_array(contextual, "contextual set")
    moving = _as_float_array(complementary, "complementary set")
    if not math.isfinite(t_hi * float(moving.max())):
        raise ValueError(f"sweep top {t_hi} carries the complementary set past the float range")
    ts = np.geomspace(t_lo, t_hi, steps)
    slope, offset = params.curve_slope / params.chi_star, params.curve_offset / params.chi_star
    cut = _skip_cut(params)
    # pairs within F do not move with t
    lower, dist = _upper_pairs(base, slope)
    fixed = _kernel_sum(dist / (lower + offset), params)
    lower, dist = _moving_pairs(moving, slope, offset, ts[0], cut)
    rows = _chunk_rows(base.size, moving.size)
    # every chunk reuses three buffers, for the x of its cross pairs, of its
    # pairs within tF' and the kernel's scratch: a fresh array costs a page
    # fault per page
    cross_x, within_x = np.empty(rows * base.size * moving.size), np.empty(rows * dist.size)
    scratch = np.empty(max(cross_x.size, within_x.size))
    totals = np.empty(steps)
    for first, t, f, g in _cross_chunks(ts, base, moving, rows, slope, offset, cut):
        x = cross_x[: t.size * f.size].reshape(t.size, f.size)
        scale = scratch[: x.size].reshape(x.shape)
        np.multiply(t, g, out=x)
        np.minimum(x, f, out=scale)
        scale *= slope
        scale += offset
        x -= f
        np.abs(x, out=x)
        x /= scale
        totals[first : first + t.size] = _kernel_sum(x, params, scale)
        x = within_x[: t.size * dist.size].reshape(t.size, dist.size)
        np.add(lower, offset / t, out=x)
        np.divide(dist, x, out=x)
        totals[first : first + t.size] += _kernel_sum(x, params, scratch[: x.size].reshape(x.shape))
    totals += fixed
    return list(map(tuple.__new__, repeat(CurvePoint), zip(ts.tolist(), _checked(totals).tolist())))


def _checked(totals: np.ndarray) -> np.ndarray:
    """Roughness totals, refused when one is negative, NaN or past the
    float range (where ``pair_roughness`` raises OverflowError)."""
    if not np.all(totals >= 0):  # NaN fails the comparison too
        raise ValueError("dissonance cannot be negative or NaN")
    if not np.all(totals < math.inf):
        raise ValueError("dissonance exceeds the float range")
    return totals
