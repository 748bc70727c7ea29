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

A sweep of F against tF' sums the pairs within F once and walks its steps
in chunks through reused buffers, so memory is bounded by the chunk and the
pair arrays, not by steps * (N+M)^2. Each block of steps splits the cross
pairs it keeps by the side of their coincidence point, and pairs that
cannot change a total are not evaluated (README, "Roughness model", which
gives the kernel's forms and their numpy passes, the skip rule and its
conditions, and how far the sums may differ from an all-pairs sum). Far
pairs are also the slow ones: ``exp`` of an argument below about -708 costs
ten to a hundred times an ordinary one.

This is the one floating-point corner of the package; nothing here feeds
back into the rational layer.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
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
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, not {value}")


DEFAULT_PARAMS = DissonanceParams()

# Values per temporary array in a sweep: the t grid is walked in chunks of
# steps small enough that each temporary stays cache-sized and memory does
# not grow with the number of steps.
_CHUNK_ELEMENTS = 1 << 16

# numpy's ufunc buffer, in values, while a sweep runs: an operation that
# broadcasts a column of steps against a row of pairs copies its operands
# through the buffer when a row of its output is shorter than about a third
# of it (8192 values by default), at about four times the cost of the loop
_BUFFER_SIZE = 256


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


def _kernel_sum(
    y: np.ndarray, params: DissonanceParams, fold: float = 1.0, slow: Optional[np.ndarray] = None
) -> np.ndarray:
    """Kernel summed over the last axis, for pairs given by y = fold * x,
    x = chi_star * d / (s1 * fmin + s2), where ``fold`` is 1 or b1 (which
    then costs no multiply); ``y`` is overwritten, and so is ``slow``,
    scratch space of y's shape and memory order. Each exponential is summed
    on its own. Callers ignore overflow, which ``_checked`` refuses."""
    p = params
    slow = np.multiply(y, p.decay_slow / fold, out=slow)
    np.exp(slow, out=slow)
    if fold != p.decay_fast:
        y *= p.decay_fast / fold
    np.exp(y, out=y)
    return p.amplitude * p.amplitude * (p.weight_fast * y.sum(axis=-1) + p.weight_slow * slow.sum(axis=-1))


def _upper_pairs(freqs: np.ndarray, slope: float) -> tuple[np.ndarray, np.ndarray]:
    """``slope`` times the lower frequency, and the distance, of every
    unordered pair of partials, i < j in row-major order:
    x = distance / (that + s2/chi_star)."""
    upper = ~np.tri(freqs.size, dtype=bool)
    return (
        slope * np.minimum.outer(freqs, freqs)[upper],
        np.abs(np.subtract.outer(freqs, freqs)[upper]),
    )


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
    offset: float, cut: float, fold: float,
) -> Iterator[tuple[int, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Each chunk of ``rows`` steps as its first index, its t column and
    the cross pairs (f, t*g) that can matter there, in three groups.

    A pair is held as its coincidence point P = f/g and Q = offset/g:
    x = |t - P| / (slope * min(t, P) + Q). Each group is an array of two
    rows, a column per pair, from which y = fold * x takes the fewest
    passes: rising pairs (P at most the block's first t) as P and
    R = fold / (slope * P + Q), y = (t - P) * R; falling pairs (P at least
    its last t) as P and Q/fold, y = (P - t) / (slope/fold * t + Q/fold);
    and straddling pairs as P and Q/fold, y by the min/abs form.

    A pair has x <= ``cut`` only for t in a window [t_from, t_to] about P,
    as x grows with |t - P| on either side. Pairs are decided once per block
    of whole chunks and at least 16 steps: a pair is kept when its window
    meets the block's t range (a NaN t_from keeps a falling pair too, to be
    refused). With an infinite cut, every pair straddles every block.
    """
    pairs = np.empty((2, base.size * moving.size))  # rows P and Q/fold
    np.divide.outer(base, moving, out=pairs[0].reshape(base.size, moving.size))
    pairs[1].reshape(base.size, moving.size)[:] = offset / fold / moving
    if cut == math.inf:
        groups = (pairs[:, :0], pairs[:, :0], pairs)
        for first in range(0, ts.size, rows):
            yield first, ts[first : first + rows, None], groups
        return
    P, Q = pairs
    order = P.argsort()
    P[:] = P.take(order)
    Q[:] = Q.take(order)
    del order
    t_to = P * (slope / fold)
    t_to += Q
    t_to *= cut * fold
    t_to += P
    t_from = Q * (-cut * fold)
    t_from += P
    t_from /= 1 + cut * slope
    block = rows * -(-16 // rows)
    for start in range(0, ts.size, block):
        stop = min(start + block, ts.size)
        lo, hi = ts[start], ts[stop - 1]
        rise = P.searchsorted(lo, "right")
        fall = max(rise, P.searchsorted(hi, "left"))
        # P and t_to are finite or +inf where P <= lo, so no t_to there is NaN
        rising = pairs[:, :rise].take((t_to[:rise] >= lo).nonzero()[0], axis=1)
        R = rising[1]
        R += rising[0] * (slope / fold)
        np.divide(1, R, out=R)
        falling = pairs[:, fall:].take((~(t_from[fall:] > hi)).nonzero()[0], axis=1)
        groups = (rising, falling, pairs[:, rise:fall])
        for first in range(start, stop, rows):
            yield first, ts[first : min(first + rows, stop), None], groups


def _chunk_rows(n: int, m: int) -> int:
    """Sweep steps per chunk for n fixed and m moving partials: no per-chunk
    temporary holds more than _CHUNK_ELEMENTS values unless one step does."""
    return max(1, _CHUNK_ELEMENTS // max(n * m, m * (m - 1) // 2))


def _as_float_array(freqs: Union[FrequencySet, Iterable[float]], role: str) -> np.ndarray:
    if isinstance(freqs, FrequencySet) and freqs:
        # a * n as num * n / den, rounded once as float() rounds the Fraction,
        # without building one
        a, multipliers, _ = freqs._lattice_view()
        num, den = a.numerator, a.denominator
        try:
            arr = np.array([num * n / den for n in multipliers])
        except OverflowError:
            pass  # the loop below names the partial
        else:
            if arr[0] > 0:  # ascending: only the first can fall below the float range
                return arr
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
    with np.errstate(over="ignore"):  # an overflowing total is refused by _checked
        total = _kernel_sum(dist / (lower + offset), params)
    return float(_checked(total))


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
    with np.errstate(over="ignore"):  # an overflowing total is refused by _checked
        buffer_size = np.setbufsize(_BUFFER_SIZE)
        try:
            totals = _sweep(ts, base, moving, params)
        finally:
            np.setbufsize(buffer_size)
    return list(map(tuple.__new__, repeat(CurvePoint), zip(ts.tolist(), _checked(totals).tolist())))


def _sweep(ts: np.ndarray, base: np.ndarray, moving: np.ndarray, params: DissonanceParams) -> np.ndarray:
    """Roughness of F u tF' at each t of ``ts``, for F ``base`` and F'
    ``moving``."""
    slope, offset = params.curve_slope / params.chi_star, params.curve_offset / params.chi_star
    cut = _skip_cut(params)
    # b1 < 0 is folded into every y of the sweep when the cut is finite
    fold = params.decay_fast if cut < math.inf else 1.0
    # pairs within F do not move with t
    lower, dist = _upper_pairs(base, slope)
    fixed = _kernel_sum(dist / (lower + offset), params)
    lower, dist = _moving_pairs(moving, slope, offset, ts[0], cut)
    dist = dist * fold
    # buffers for the steps a short sweep has, not for a whole chunk
    rows = min(_chunk_rows(base.size, moving.size), ts.size)
    # a chunk lays its groups of cross pairs and its pairs within tF' end to
    # end along the rows of one reused buffer, its steps down the columns;
    # when its steps outnumber half its cross pairs (small spectra) they run
    # along the rows instead, so numpy loops over the longer rows. The
    # kernel's scratch takes the same layout in a second buffer: a fresh
    # array costs a page fault per page
    steps_inner = 2 * rows > base.size * moving.size
    buffer = np.empty(rows * (base.size * moving.size + dist.size))
    scratch = np.empty(buffer.size)
    totals = np.empty(ts.size)
    for first, t, (rising, falling, straddling) in _cross_chunks(
        ts, base, moving, rows, slope, offset, cut, fold
    ):
        n = t.size
        a = rising.shape[1]
        b = a + falling.shape[1]
        c = b + straddling.shape[1]
        k = c + dist.size
        if steps_inner:
            y, s = buffer[: n * k].reshape(k, n).T, scratch[: n * k].reshape(k, n).T
        else:
            y, s = buffer[: n * k].reshape(n, k), scratch[: n * k].reshape(n, k)
        if a:  # t >= P: x = (t - P) / (slope * P + Q)
            part = y[:, :a]
            np.subtract(t, rising[0], out=part)
            part *= rising[1]
        if b > a:  # t <= P: x = (P - t) / (slope * t + Q)
            part, scale = y[:, a:b], s[:, a:b]
            np.add(t * (slope / fold), falling[1], out=scale)
            np.subtract(falling[0], t, out=part)
            part /= scale
        if c > b:
            part, scale = y[:, b:c], s[:, b:c]
            np.minimum(t, straddling[0], out=scale)
            scale *= slope / fold
            scale += straddling[1]
            np.subtract(t, straddling[0], out=part)
            np.abs(part, out=part)
            part /= scale
        # within tF', d and the lower partial scale with t
        part = y[:, c:]
        np.add(lower, offset / t, out=part)
        np.divide(dist, part, out=part)
        totals[first : first + n] = _kernel_sum(y, params, fold, s)
    return totals + fixed


def _checked(totals: np.ndarray) -> np.ndarray:
    """Roughness totals, refused when one is negative, NaN or past the
    float range (where ``pair_roughness`` raises OverflowError)."""
    if not np.all(totals >= 0):  # NaN fails the comparison too
        raise ValueError("dissonance cannot be negative or NaN")
    if not np.all(totals < math.inf):
        raise ValueError("dissonance exceeds the float range")
    return totals
