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
pairs within F once and, per step, evaluates only the N*M cross pairs and
the M(M-1)/2 pairs within tF', whose lower frequency and distance are those
of F' scaled by t. Steps are walked in chunks of about 2^16 pair values, so
memory is bounded by the chunk and the pair arrays, not by steps * (N+M)^2.
Summation order differs from an all-pairs sum only in rounding: curves agree
with it to 1e-12 relative (the last digits of a ``dissonance`` value), and
to ~1e-15 absolute per pair for totals too small for that, where one ulp of
``exp`` in a nearly coincident pair dominates.

This is the one floating-point corner of the package; nothing here feeds
back into the rational layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .core import FrequencySet, _scientific

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


@dataclass(frozen=True)
class CurvePoint:
    t: float
    dissonance: float

    def __post_init__(self) -> None:
        if self.dissonance < 0:
            raise ValueError("dissonance cannot be negative")


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


def _roughness_sum(fmin: np.ndarray, diff: np.ndarray, params: DissonanceParams) -> np.ndarray:
    """Kernel summed over the last axis, for pairs given by their lower
    frequency and their distance; both arrays are overwritten."""
    x = np.multiply(fmin, params.curve_slope, out=fmin)
    x += params.curve_offset
    np.divide(params.chi_star, x, out=x)
    x *= diff
    slow = np.multiply(x, params.decay_slow, out=diff)
    np.exp(slow, out=slow)
    slow *= params.weight_slow
    x *= params.decay_fast
    np.exp(x, out=x)
    x *= params.weight_fast
    x += slow
    return params.amplitude * params.amplitude * x.sum(axis=-1)


def _upper_pairs(freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower frequency and distance of every unordered pair of partials."""
    i, j = np.triu_indices(freqs.size, k=1)
    return np.minimum(freqs[i], freqs[j]), np.abs(freqs[j] - freqs[i])


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
        values.append(x)
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty frequency set")
    if np.any(arr <= 0):
        raise ValueError("frequencies must be positive")
    return arr


def spectrum_roughness(
    freqs: Union[FrequencySet, Iterable[float]],
    params: DissonanceParams = DEFAULT_PARAMS,
) -> float:
    """Total roughness of one spectrum: sum over all unordered partial pairs."""
    return float(_roughness_sum(*_upper_pairs(_as_float_array(freqs, "spectrum")), params))


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
    and a top that carries a partial past the float range, raise ValueError.
    """
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and 0 < t_lo < t_hi):
        raise ValueError(f"invalid sweep range [{t_lo}, {t_hi}]")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    base = _as_float_array(contextual, "contextual set")
    moving = _as_float_array(complementary, "complementary set")
    if not math.isfinite(t_hi * float(moving.max())):
        raise ValueError(f"sweep top {t_hi} carries the complementary set past the float range")
    ts = np.geomspace(t_lo, t_hi, steps)
    # pairs within F do not move with t; pairs within tF' scale with it
    fixed = _roughness_sum(*_upper_pairs(base), params)
    moving_min, moving_diff = _upper_pairs(moving)
    # the two partials of every cross pair, flat so each row is one long run
    cross_f, cross_g = np.repeat(base, moving.size), np.tile(moving, base.size)
    totals = np.empty(steps)
    rows = _chunk_rows(base.size, moving.size)
    for start in range(0, steps, rows):
        t = ts[start : start + rows, None]
        swept = t * cross_g
        lower = np.minimum(swept, cross_f)
        swept -= cross_f
        cross = _roughness_sum(lower, np.abs(swept, out=swept), params)
        totals[start : start + rows] = cross + _roughness_sum(t * moving_min, t * moving_diff, params)
    totals += fixed
    return [CurvePoint(t, d) for t, d in zip(ts.tolist(), totals.tolist())]
