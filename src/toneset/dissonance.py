"""Roughness-based dissonance curves for comparison against rational tunings.

Pairwise roughness follows the Plomp & Levelt (1965) critical-band data in
the form and with the constants popularised by Sethares ("Tuning, Timbre,
Spectrum, Scale"): two exponentials whose horizontal scale tracks the
critical band of the lower partial. Only ``chi_star``, the interval fraction
of maximum roughness, is a parameter; shrinking it models a coarser auditory
resolution and flattens the curve's sharp minima.

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
ten to a hundred times an ordinary one. Within one set (F, tF', or the
spectrum of ``spectrum_roughness``) the pairs of a partial with a run of
consecutive multipliers above it form a geometric series, summed in closed
form as one entry (README, "Runs within a set are summed in closed form").

This is the one floating-point corner of the package; nothing here feeds
back into the rational layer.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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


# Sethares's constants: s1, the critical-band growth per Hz, and s2, its
# floor in Hz; the decays b1, b2 and the weights c1, c2 of the two
# exponentials. Amplitudes are uniform, 1.
_S1, _S2 = 0.0207, 18.96
_B1, _B2 = -3.51, -5.75
_C1, _C2 = 5.0, -5.0

# x beyond which every kernel value is below 2^-100, as
# |kernel(x)| <= (|c1| + |c2|) e^(max(b1, b2) x): about 20.40
_CUT = (math.log(abs(_C1) + abs(_C2)) + 100 * math.log(2)) / -max(_B1, _B2)


@dataclass(frozen=True)
class DissonanceParams:
    """Resolution of the pairwise roughness kernel.

    roughness(f1, f2) = c1 * exp(b1*s*d) + c2 * exp(b2*s*d) with
    d = |f2 - f1| and s = chi_star / (s1 * min(f1, f2) + s2), for
    s1 = 0.0207, s2 = 18.96, b1 = -3.51, b2 = -5.75, c1 = 5 and c2 = -5.
    ``chi_star`` is the interval fraction of maximum roughness.
    """

    chi_star: float = 0.24

    def __post_init__(self) -> None:
        if not (math.isfinite(self.chi_star) and self.chi_star > 0):
            raise ValueError(f"chi_star must be finite and positive, not {self.chi_star}")


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

# The pairs of a partial with a block of at least this many consecutive
# multipliers above it are summed as one entry, and with a shorter block
# pair by pair: an entry costs about three pairs (README, "Runs within a set")
_MIN_RUN = 4

# The least unit u (the x between neighbours of a run) of an entry: from
# |b1*u| = 1/2 on, 1 - e^(b1*u) loses at most about an ulp to cancellation,
# so the run sums are good to a few ulps; and as u <= chi_star / (s1 * m_j),
# it bounds the multiplier m_j, whose rounding the unit, taken from the head
# pair, carries along the run. A partial whose unit is smaller keeps its pairs
_MIN_UNIT = 0.5 / -_B1

# The least pair values (the pairs within a set times the steps that sum
# them) for which a sum seeks the set's runs: finding and summing entries
# costs about 0.1 ms, which fewer values do not repay (README, "Runs within
# a set"). A C4_6 sweep of 2000 steps (30,000 values) sums pair by pair
_RUN_VALUES = 1 << 15


class CurvePoint(namedtuple("CurvePoint", "t dissonance")):
    """One sample of a sweep: the interval t and the roughness there.

    A tuple, so a sweep of thousands of steps builds its points cheaply;
    ``dissonance_curve`` checks its totals once, and builds its points with
    ``tuple.__new__``, in C and without the check here.
    """

    __slots__ = ()

    def __new__(cls, t: float, dissonance: float) -> "CurvePoint":
        if not dissonance >= 0:  # NaN fails the comparison too; -0.0 passes
            raise ValueError("dissonance cannot be negative or NaN")
        return super().__new__(cls, t, dissonance)


def pair_roughness(
    f1: float, f2: float, params: DissonanceParams = DEFAULT_PARAMS
) -> float:
    """Roughness of two sine partials (``DissonanceParams`` gives the
    kernel): 0 at coincidence, peaked nearby.

    The interior maximum sits at the chi_star-governed fraction of the lower
    frequency's critical band and the value tails off to zero as the
    frequencies separate.
    """
    if f1 <= 0 or f2 <= 0:
        raise ValueError("frequencies must be positive")
    x = params.chi_star / (_S1 * min(f1, f2) + _S2) * abs(f2 - f1)
    return _C1 * math.exp(_B1 * x) + _C2 * math.exp(_B2 * x)


def _kernel_sum(
    y: np.ndarray,
    fold: float = 1.0,
    slow: Optional[np.ndarray] = None,
    sums: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Kernel summed over the last axis, for pairs given by y = fold * x,
    x = chi_star * d / (s1 * fmin + s2), where ``fold`` is 1 or b1 (which
    then costs no multiply); ``y`` is overwritten, and so is ``slow``,
    scratch space of y's shape and memory order. Each exponential is summed
    on its own. The last pairs of ``y`` may be the heads of entries, whose
    exponentials ``_run_sums``'s ``sums`` multiply. A caller ignores
    overflow (and a sweep invalid values), which ``_checked`` refuses."""
    slow = np.multiply(y, _B2 / fold, out=slow)
    np.exp(slow, out=slow)
    if fold != _B1:
        y *= _B1 / fold
    np.exp(y, out=y)
    if sums is not None:
        tail = y.shape[-1] - sums[0].shape[-1]
        y[..., tail:] *= sums[0]
        slow[..., tail:] *= sums[1]
    return _C1 * y.sum(axis=-1) + _C2 * slow.sum(axis=-1)


def _run_sums(head: np.ndarray, scale: np.ndarray, lengths: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The two sums of each entry's run, e^(beta*i*u) over i < L for
    beta = b1 and b2, which multiply e^(b1*x) and e^(b2*x) of its head
    pair: (1 - e^(beta*u*L)) / (1 - e^(beta*u)), where b1*u = ``head`` *
    ``scale``. ``out`` is scratch space of shape (2, 2, *head.shape); the
    sums are written to ``out[1]``, b1's first."""
    units, sums = out
    np.multiply(head, scale, out=units[0])
    np.multiply(units[0], _B2 / _B1, out=units[1])
    np.multiply(units, lengths, out=sums)
    np.exp(out, out=out)
    np.subtract(1, out, out=out)
    sums /= units
    return sums


_Runs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _runs(freqs: Union[FrequencySet, Sized], repeats: int) -> Optional[_Runs]:
    """The runs of at least ``_MIN_RUN`` consecutive multipliers of a
    FrequencySet whose pairs are summed ``repeats`` times, as the index of
    each one's first partial and the index past its last, the number of
    each partial's run (that of an empty last run for a partial in none),
    and the multipliers below 2^53 as exact floats; None for any other
    set, for a set with no such run, and for fewer than ``_RUN_VALUES``
    pair values. A multiplier from 2^53 on is in no run: the floats of its
    neighbours are no more than an ulp apart."""
    if not isinstance(freqs, FrequencySet) or math.comb(len(freqs), 2) * repeats < _RUN_VALUES:
        return None
    multipliers = freqs._lattice_view()[1]
    exact = np.array(multipliers[: bisect_left(multipliers, 2**53)], dtype=float)
    # a run starts at 0, after each step other than 1, and at each
    # multiplier from 2^53 on
    bounds = np.concatenate(
        ([0], (exact[1:] != exact[:-1] + 1).nonzero()[0] + 1, np.arange(exact.size, len(multipliers) + 1))
    )
    lengths = bounds[1:] - bounds[:-1]
    long = lengths >= _MIN_RUN
    if not long.any():
        return None
    # a last, empty run past the end stands for the short ones
    numbers = np.where(long, long.cumsum() - 1, long.sum())
    starts, ends = (np.append(edge[long], len(multipliers)) for edge in (bounds[:-1], bounds[1:]))
    return starts, ends, np.repeat(numbers, lengths), exact


def _within(
    freqs: np.ndarray, runs: Optional[_Runs], slope: float, offset: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs within one set as the kernel sums them, x = d / (lower +
    offset) for lower = ``slope`` * fmin and d the distance: lower and d
    of each pair summed on its own, i < j in row-major order, then of the
    head pair of each entry; and the gap s - m_j and length L of each entry.

    With ``runs`` (of ascending ``freqs``), the pairs of partial j with a
    block of at least ``_MIN_RUN`` consecutive multipliers above it (the
    rest of its own run, or a whole run) are one entry (README, "Runs
    within a set"). A partial whose unit x / (s - m_j) is below ``_MIN_UNIT`` at
    ``offset``, the least that the sum meets (u grows as the offset
    shrinks), keeps its pairs."""
    single = ~np.tri(freqs.size, dtype=bool)
    rows = cols = np.empty(0, dtype=int)
    gaps = lengths = np.empty(0)
    if runs is not None:
        starts, ends, numbers, multipliers = runs
        # the block of run r above partial j runs from max(j + 1, the run's
        # start) to its end; a long block is one entry, headed by its first pair
        heads = np.maximum.outer(np.arange(1, freqs.size + 1), starts)
        long = ends - heads >= _MIN_RUN
        rows, which = long.nonzero()
        cols = heads[rows, which]
        gaps = multipliers[cols] - multipliers[rows]
        faint = freqs[cols] - freqs[rows] < (slope * freqs[rows] + offset) * (_MIN_UNIT * gaps)
        if faint.any():
            long[rows[faint]] = False
            kept = long[rows, which]
            rows, which, cols, gaps = rows[kept], which[kept], cols[kept], gaps[kept]
        lengths = (ends[which] - cols).astype(float)
        # a pair (j, k) is in an entry when the block of k's run above j is
        single &= ~long[:, numbers]
    lower = np.minimum.outer(freqs, freqs)[single]
    dist = np.subtract.outer(freqs, freqs)[single]
    if rows.size:
        lower = np.concatenate((lower, freqs[rows]))
        dist = np.concatenate((dist, freqs[rows] - freqs[cols]))
    lower *= slope
    np.abs(dist, out=dist)
    return lower, dist, gaps, lengths


def _near(
    lower: np.ndarray, dist: np.ndarray, gaps: np.ndarray, lengths: np.ndarray, offset: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_within``'s pairs and entries of F' less those past the cut at the
    first step, ``offset`` = (s2/chi_star) / t_lo: within tF', x =
    d / (lower + offset/t) grows with t, and the other pairs of an entry
    lie past its head, so the first step decides them for the sweep."""
    near = ~(dist / (lower + offset) > _CUT)  # a NaN x is kept, to be refused
    if near.all():
        return lower, dist, gaps, lengths
    tail = near[near.size - gaps.size :]
    return lower[near], dist[near], gaps[tail], lengths[tail]


def _set_sum(freqs: np.ndarray, runs: Optional[_Runs], slope: float, offset: float) -> np.ndarray:
    """Roughness of one set, its pairs and entries in one kernel sum."""
    lower, dist, gaps, lengths = _within(freqs, runs, slope, offset)
    lower += offset
    x = np.divide(dist, lower, out=dist)
    sums = None
    if gaps.size:
        sums = _run_sums(x[x.size - gaps.size :], _B1 / gaps, lengths, np.empty((2, 2, gaps.size)))
    return _kernel_sum(x, 1.0, None, sums)


def _cross_chunks(
    ts: np.ndarray, base: np.ndarray, moving: np.ndarray, rows: int, slope: float, offset: float
) -> Iterator[tuple[int, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Each chunk of ``rows`` steps as its first index, its t column and
    the cross pairs (f, t*g) that can matter there, in three groups.

    A pair is held as its coincidence point P = f/g and Q = offset/g:
    x = |t - P| / (slope * min(t, P) + Q). Each group is an array of two
    rows, a column per pair, from which y = b1 * x takes the fewest passes:
    rising pairs (P at most the block's first t) as P and
    R = b1 / (slope * P + Q), y = (t - P) * R; falling pairs (P at least
    its last t) as P and Q/b1, y = (P - t) / (slope/b1 * t + Q/b1); and
    straddling pairs as P and Q/b1, y by the min/abs form.

    A pair has x <= the cut only for t in a window [t_from, t_to] about P,
    as x grows with |t - P| on either side. Pairs are decided once per block
    of whole chunks and at least 16 steps: a pair is kept when its window
    meets the block's t range (a NaN t_from keeps a falling pair too, to be
    refused).
    """
    pairs = np.empty((2, base.size * moving.size))  # rows P and Q/b1
    np.divide.outer(base, moving, out=pairs[0].reshape(base.size, moving.size))
    pairs[1].reshape(base.size, moving.size)[:] = offset / _B1 / moving
    P, Q = pairs
    order = P.argsort()
    P[:] = P.take(order)
    Q[:] = Q.take(order)
    del order
    t_to = P * (slope / _B1)
    t_to += Q
    t_to *= _CUT * _B1
    t_to += P
    t_from = Q * (-_CUT * _B1)
    t_from += P
    t_from /= 1 + _CUT * slope
    block = rows * -(-16 // rows)
    for start in range(0, ts.size, block):
        stop = min(start + block, ts.size)
        lo, hi = ts[start], ts[stop - 1]
        rise = P.searchsorted(lo, "right")
        fall = max(rise, P.searchsorted(hi, "left"))
        # P and t_to are finite or +inf where P <= lo, so no t_to there is NaN
        rising = pairs[:, :rise].take((t_to[:rise] >= lo).nonzero()[0], axis=1)
        R = rising[1]
        R += rising[0] * (slope / _B1)
        np.divide(1, R, out=R)
        falling = pairs[:, fall:].take((~(t_from[fall:] > hi)).nonzero()[0], axis=1)
        groups = (rising, falling, pairs[:, rise:fall])
        for first in range(start, stop, rows):
            yield first, ts[first : min(first + rows, stop), None], groups


def _chunk_rows(cross: int, within: int) -> int:
    """Sweep steps per chunk for ``cross`` cross pairs and ``within`` pairs
    and entries within F' a step: no per-chunk temporary holds more than
    _CHUNK_ELEMENTS values unless one step does."""
    return max(1, _CHUNK_ELEMENTS // max(cross, within))


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
    arr = _as_float_array(freqs, "spectrum")
    with np.errstate(over="ignore"):  # an overflowing total is refused by _checked
        total = _set_sum(arr, _runs(freqs, 1), _S1 / params.chi_star, _S2 / params.chi_star)
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
    try:
        finite = math.isfinite(t_lo) and math.isfinite(t_hi)
    except OverflowError:
        raise ValueError("sweep bounds exceed the float range") from None
    lo, hi = float(t_lo), float(t_hi)  # numpy takes no Fraction
    if not (finite and 0 < lo < hi):
        raise ValueError(f"invalid sweep range [{t_lo}, {t_hi}]")
    t_lo, t_hi = lo, hi
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
    # a total made NaN or past the float range is refused by _checked
    with np.errstate(over="ignore", invalid="ignore"):
        buffer_size = np.setbufsize(_BUFFER_SIZE)
        try:
            totals = _sweep(ts, base, moving, _runs(contextual, 1), _runs(complementary, steps), params)
        finally:
            np.setbufsize(buffer_size)
    return list(map(tuple.__new__, repeat(CurvePoint), zip(ts.tolist(), _checked(totals).tolist())))


def _sweep(
    ts: np.ndarray,
    base: np.ndarray,
    moving: np.ndarray,
    base_runs: Optional[_Runs],
    moving_runs: Optional[_Runs],
    params: DissonanceParams,
) -> np.ndarray:
    """Roughness of F u tF' at each t of ``ts``, for F ``base`` and F'
    ``moving`` and the runs of their multipliers."""
    slope, offset = _S1 / params.chi_star, _S2 / params.chi_star
    # pairs within F do not move with t
    fixed = _set_sum(base, base_runs, slope, offset)
    lower, dist, gaps, lengths = _within(moving, moving_runs, slope, offset / ts[0])
    # buffers for the steps a short sweep has, not for a whole chunk
    rows = min(_chunk_rows(base.size * moving.size, dist.size), ts.size)
    lower, dist, gaps, lengths = _near(lower, dist, gaps, lengths, offset / ts[0])
    # b1 is folded into every y of the sweep
    dist = dist * _B1
    per_gap, e = 1 / gaps, gaps.size
    # a chunk lays its groups of cross pairs and its pairs and entries within
    # tF' end to end along the rows of one reused buffer, its steps down the
    # columns; when its steps outnumber half its cross pairs (small spectra)
    # they run along the rows instead, so numpy loops over the longer rows.
    # The kernel's scratch and the run sums take the same layout in buffers
    # of their own: a fresh array costs a page fault per page
    steps_inner = 2 * rows > base.size * moving.size
    buffer = np.empty(rows * (base.size * moving.size + dist.size))
    scratch = np.empty(buffer.size)
    run_buffer = np.empty((2, 2, rows * e))
    totals = np.empty(ts.size)

    def laid(buf: np.ndarray, n: int, cols: int) -> np.ndarray:
        """n steps of ``cols`` values each, from the last axis of ``buf``."""
        lead, values = buf.shape[:-1], buf[..., : n * cols]
        if steps_inner:
            return values.reshape(*lead, cols, n).swapaxes(-1, -2)
        return values.reshape(*lead, n, cols)

    for first, t, (rising, falling, straddling) in _cross_chunks(ts, base, moving, rows, slope, offset):
        n = t.size
        a = rising.shape[1]
        b = a + falling.shape[1]
        c = b + straddling.shape[1]
        k = c + dist.size
        y, s = laid(buffer, n, k), laid(scratch, n, k)
        if a:  # t >= P: x = (t - P) / (slope * P + Q)
            part = y[:, :a]
            np.subtract(t, rising[0], out=part)
            part *= rising[1]
        if b > a:  # t <= P: x = (P - t) / (slope * t + Q)
            part, scale = y[:, a:b], s[:, a:b]
            np.add(t * (slope / _B1), falling[1], out=scale)
            np.subtract(falling[0], t, out=part)
            part /= scale
        if c > b:
            part, scale = y[:, b:c], s[:, b:c]
            np.minimum(t, straddling[0], out=scale)
            scale *= slope / _B1
            scale += straddling[1]
            np.subtract(t, straddling[0], out=part)
            np.abs(part, out=part)
            part /= scale
        # within tF', d and the lower partial scale with t
        part = y[:, c:]
        np.add(lower, offset / t, out=part)
        np.divide(dist, part, out=part)
        sums = _run_sums(y[:, k - e :], per_gap, lengths, laid(run_buffer, n, e)) if e else None
        totals[first : first + n] = _kernel_sum(y, _B1, s, sums)
    return totals + fixed


def _checked(totals: np.ndarray) -> np.ndarray:
    """Roughness totals, refused when one is negative, NaN or past the
    float range (where ``pair_roughness`` raises OverflowError)."""
    if not np.all(totals >= 0):  # NaN fails the comparison too
        raise ValueError("dissonance cannot be negative or NaN")
    if not np.all(totals < math.inf):
        raise ValueError("dissonance exceeds the float range")
    return totals
