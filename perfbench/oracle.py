"""Exact reference checks for toneset outputs, written without toneset.

Every check here rebuilds the expected result by brute force from the
definitions, never through the package under test:

* interval sets: pairwise ratios (affinitive, superset) or every reduced
  p/q inside the bounds (harmonic), thresholded by materialised scoring;
* scores: the union U = F u tG is materialised, then
  affinity = |F n tG| / min(|F|, |G|) and harmonicity = gcd(U)*|U|/max(U);
* note names: the exact +-50 cent window test on the 24th power;
* roughness: the Sethares pair kernel summed in pure Python.

Each ``check_*`` function returns a list of problem strings; empty means the
output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

# Sethares' constants for the Plomp-Levelt roughness kernel, restated here
# so the reference does not read them from the package.
S1, S2 = 0.0207, 18.96
B1, B2 = -3.51, -5.75
C1, C2 = 5.0, -5.0
PITCH_CLASSES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

TABLE_HEADER = ["interval_ratio", "cents", "affinity", "harmonicity", "total"]


def slash(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def set_gcd(values: Iterable[Fraction]) -> Fraction:
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(math.gcd(*(v.numerator * (den // v.denominator) for v in values)), den)


def score(F: frozenset, G: frozenset, t: Fraction) -> tuple[Fraction, Fraction]:
    """(affinity, harmonicity) of F against tG, by materialising the union."""
    moved = {t * g for g in G}
    union = F | moved
    affinity = Fraction(len(F & moved), min(len(F), len(G)))
    return affinity, set_gcd(union) * len(union) / max(union)


def rationals(lo: Fraction, hi: Fraction, max_den: int) -> list[Fraction]:
    """Every reduced p/q with q <= max_den and lo <= p/q <= hi, ascending."""
    found = []
    for q in range(1, max_den + 1):
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1):
            if math.gcd(p, q) == 1:
                found.append(Fraction(p, q))
    return sorted(found)


def pairwise(F: Iterable[Fraction], G: Iterable[Fraction]) -> list[Fraction]:
    G = list(G)
    return sorted({f / g for f in F for g in G})


def harmonic_superset(F: Iterable[Fraction], extra: int) -> list[Fraction]:
    F = list(F)
    fundamental = set_gcd(F)
    top = max(F) / fundamental
    return [fundamental * i for i in range(1, int(top) + extra + 1)]


def superset_intervals(F, G, n: int, m: int) -> list[Fraction]:
    return pairwise(harmonic_superset(F, n), harmonic_superset(G, m))


def harmonic_intervals(F, G, h, lo, hi, max_den) -> list[Fraction]:
    candidates = rationals(lo, hi, max_den)
    if h == 0:  # harmonicity of a nonempty union is always positive
        return candidates
    F, G = frozenset(F), frozenset(G)
    return [t for t in candidates if score(F, G, t)[1] > h]


def fold(t: Fraction) -> Fraction:
    while t < 1:
        t *= 2
    while t >= 2:
        t /= 2
    return t


def cents(t: Fraction) -> float:
    return 1200.0 * (math.log2(t.numerator) - math.log2(t.denominator))


def note_label(freq: Fraction) -> str | None:
    """12-TET name (A4 = 440) of the +-50 cent window holding freq, C0..D#8."""
    x = (freq / 440) ** 24
    i = round(12 * math.log2(freq.numerator / freq.denominator / 440))
    while x < Fraction(2) ** (2 * i - 1):
        i -= 1
    while x >= Fraction(2) ** (2 * i + 1):
        i += 1
    midi = i + 69
    if not 12 <= midi <= 111:
        return None
    return f"{PITCH_CLASSES[midi % 12]}{midi // 12 - 1}"


def roughness(freqs: Sequence[float], chi_star: float = 0.24) -> float:
    """Summed pair roughness over all unordered pairs of a spectrum."""
    terms = []
    for i, a in enumerate(freqs):
        for b in freqs[i + 1 :]:
            x = chi_star / (S1 * min(a, b) + S2) * abs(b - a)
            terms.append(C1 * math.exp(B1 * x) + C2 * math.exp(B2 * x))
    return math.fsum(terms)


# --- table checks ---------------------------------------------------------


def check_entries(
    entries: Sequence[tuple[Fraction, Fraction, Fraction]],
    F: Iterable[Fraction],
    G: Iterable[Fraction],
    expected: Sequence[Fraction],
    rng: random.Random,
    sample: int,
) -> list[str]:
    """Interval list must equal ``expected``; a seeded sample is rescored."""
    intervals = [e[0] for e in entries]
    if intervals != list(expected):
        missing = sorted(set(expected) - set(intervals))[:3]
        extra = sorted(set(intervals) - set(expected))[:3]
        return [
            f"interval set differs: {len(intervals)} vs {len(expected)} expected; "
            f"missing {[slash(t) for t in missing]}, extra {[slash(t) for t in extra]}"
        ]
    F, G = frozenset(F), frozenset(G)
    problems = []
    picks = rng.sample(range(len(entries)), min(sample, len(entries)))
    for i in sorted(picks):
        t, affinity, harmonicity = entries[i]
        if (affinity, harmonicity) != score(F, G, t):
            want = score(F, G, t)
            problems.append(
                f"score at {slash(t)}: got ({slash(affinity)}, {slash(harmonicity)}), "
                f"expected ({slash(want[0])}, {slash(want[1])})"
            )
    return problems


def check_table_csv(text: str, entries) -> list[str]:
    """Five-column CSV rows: exact interval strings, floats of exact scores.

    ``entries`` holds one already verified (interval, affinity, harmonicity)
    triple per row, in row order.
    """
    header = text.split("\n", 1)[0].split(",")
    if header != TABLE_HEADER:
        return [f"csv header {header}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(entries):
        return [f"csv has {len(rows)} rows for {len(entries)} entries"]
    for row, (t, affinity, harmonicity) in zip(rows, entries):
        total = (affinity + harmonicity) / 2
        if row["interval_ratio"] != slash(t):
            return [f"csv interval {row['interval_ratio']} != {slash(t)}"]
        if abs(float(row["cents"]) - cents(t)) > 5.1e-5:
            return [f"csv cents {row['cents']} at {slash(t)}"]
        floats = (float(row["affinity"]), float(row["harmonicity"]), float(row["total"]))
        if floats != (float(affinity), float(harmonicity), float(total)):
            return [f"csv score floats at {slash(t)}"]
    return []


def csv_intervals(text: str) -> list[Fraction]:
    return [Fraction(r["interval_ratio"]) for r in csv.DictReader(io.StringIO(text))]


# --- document and CLI checks ----------------------------------------------


def check_document(
    text: str,
    F: Sequence[Fraction],
    G: Sequence[Fraction],
    expected: Sequence[Fraction],
    rng: random.Random,
    sample: int,
    note_root: Fraction | None,
) -> list[str]:
    """JSON tuning document: exact entries, consistent totals, note labels."""
    try:
        data = json.loads(text)
        raw = data["entries"]
        entries = [
            (Fraction(e["interval"]), Fraction(e["affinity"]), Fraction(e["harmonicity"]))
            for e in raw
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable document: {exc!r}"]
    problems = check_entries(entries, F, G, expected, rng, sample)
    for e, (t, affinity, harmonicity) in zip(raw, entries):
        if Fraction(e["total"]) != (affinity + harmonicity) / 2:
            problems.append(f"document total at {e['interval']}")
        elif abs(e["cents"] - cents(t)) > 5.1e-5:
            problems.append(f"document cents at {e['interval']}")
        elif note_root is not None and e.get("note") != note_label(note_root * t):
            problems.append(f"note at {e['interval']}: {e.get('note')}")
        elif note_root is None and "note" in e:
            problems.append(f"unexpected note at {e['interval']}")
        if problems:
            break
    return problems


def check_consonance_text(text: str, F, G) -> list[str]:
    values = {}
    for line in text.splitlines():
        label, _, rest = line.partition("=")
        values[label.strip()] = Fraction(rest.split()[0])
    affinity, harmonicity = score(frozenset(F), frozenset(G), Fraction(1))
    want = {"affinity": affinity, "harmonicity": harmonicity, "total": (affinity + harmonicity) / 2}
    return [] if values == want else [f"consonance report {values} != {want}"]


def check_text_table(text: str, F, G, expected, rng, sample) -> list[str]:
    """``--format text`` rows: interval, cents, then three 'p/q (float)' pairs."""
    lines = text.splitlines()[2:]
    entries = []
    for line in lines:
        cells = line.split()
        t, affinity, harmonicity, total = (Fraction(cells[i]) for i in (0, 2, 4, 6))
        if total != (affinity + harmonicity) / 2:
            return [f"text total at {cells[0]}"]
        entries.append((t, affinity, harmonicity))
    return check_entries(entries, F, G, expected, rng, sample)


def check_scl(text: str, folded: Sequence[Fraction]) -> list[str]:
    lines = text.splitlines()
    pitches = [t for t in folded if t != 1]
    if not pitches or pitches[-1] != 2:
        pitches.append(Fraction(2))
    want = [slash(t) for t in pitches]
    if lines[2:3] != [str(len(want))] or lines[3:] != want:
        return [f"scala pitches {lines[2:6]}... != {want[:4]}..."]
    return []


# --- figures --------------------------------------------------------------

C4 = Fraction(262)
INHARMONIC = ("1", "2.76", "5.41", "8.94", "13.35", "18.65")
INHARMONIC_ROUNDED = ("1", "2.8", "5.4", "8.8", "13.4", "18.6")


def _c4(k: int = 6) -> list[Fraction]:
    return [C4 * n for n in range(1, k + 1)]


def _inh(ratios) -> list[Fraction]:
    return [C4 * Fraction(r) for r in ratios]


def _moved(F, t) -> list[Fraction]:
    return [t * f for f in F]


def figure_parts(figure_id: str, max_den: int) -> dict[str, tuple]:
    """Independent restatement of each figure's panels.

    Table panels map to ("table", F, G, intervals-thunk) and curve panels to
    ("curve", F, G, lo, hi, chi_star); the two odd panels are "thomae".
    """
    c4, single = _c4(), [C4]
    q4, e8 = (Fraction(1, 4), Fraction(4)), (Fraction(1, 8), Fraction(8))
    fifth, third, seventh = Fraction(3, 2), Fraction(5, 4), Fraction(7, 4)
    chords = {
        "a": c4,
        "b": c4 + _moved(c4, fifth),
        "c": c4 + _moved(c4, third) + _moved(c4, fifth),
        "d": c4 + _moved(c4, third) + _moved(c4, fifth) + _moved(c4, seventh),
    }
    inh, inh_r = _inh(INHARMONIC), _inh(INHARMONIC_ROUNDED)
    sparse = [C4 * n for n in (1, 2, 4)]

    def table(F, G, make):
        return ("table", F, G, make)

    if figure_id == "fig4_2":
        return {"fig4_2": ("curve", inh, inh, 1.0, 2.3, 0.24)}
    if figure_id == "fig4_3":
        return {
            f"fig4_3_chi_{str(chi).replace('.', '_')}": ("curve", c4, c4, 1.0, 2.1, chi)
            for chi in (0.24, 0.03, 0.003)
        }
    if figure_id == "fig5_1":
        return {
            "fig5_1": table(c4, c4, lambda: pairwise(c4, c4)),
            "fig5_1_dissonance": ("curve", c4, c4, float(Fraction(1, 6)), 6.0, 0.24),
        }
    if figure_id == "fig5_2":
        return {"fig5_2": table(c4, c4, lambda: sorted({fold(t) for t in pairwise(c4, c4)}))}
    if figure_id == "fig5_3":
        return {f"fig5_3{k}": table(chords[k], c4, lambda k=k: pairwise(chords[k], c4)) for k in "abc"}
    if figure_id == "fig5_4":
        return {"fig5_4": table(inh, inh, lambda: pairwise(inh, inh))}
    if figure_id == "fig5_5":
        return {"fig5_5": table(single, single, lambda: rationals(*e8, max_den))}
    if figure_id == "fig5_6":
        return {"fig5_6": ("thomae", "modified", e8, max_den)}
    if figure_id == "fig5_7":
        return {
            f"fig5_7_k{k}": table(_c4(k), _c4(k), lambda: rationals(*e8, max_den))
            for k in (1, 6, 256)
        }
    if figure_id == "fig5_8":
        return {f"fig5_8{k}": table(chords[k], c4, lambda: rationals(*q4, max_den)) for k in "abcd"}
    if figure_id == "fig5_9":
        rich = _c4(60)
        contexts = {
            "fig5_9a": rich + _moved(rich, fifth),
            "fig5_9b": rich + _moved(rich, third) + _moved(rich, fifth),
        }
        return {key: table(ctx, rich, lambda: rationals(*q4, max_den)) for key, ctx in contexts.items()}
    if figure_id == "fig5_10":
        return {
            "fig5_10_rounded": table(inh_r, inh_r, lambda: rationals(*q4, max_den)),
            "fig5_10_original": table(inh, inh, lambda: rationals(*q4, max_den)),
        }
    if figure_id == "fig5_11":
        return {
            "fig5_11a": table(sparse, sparse, lambda: pairwise(sparse, sparse)),
            "fig5_11b": table(sparse, sparse, lambda: rationals(*q4, max_den)),
            "fig5_11c": table(
                sparse, sparse,
                lambda: harmonic_intervals(sparse, sparse, Fraction(23, 100), *q4, max_den),
            ),
        }
    if figure_id == "fig5_12":
        return {
            "fig5_12a": table(single, single, lambda: pairwise(single, single)),
            "fig5_12b": table(single, single, lambda: superset_intervals(single, single, 2, 2)),
            "fig5_12c": table(single, single, lambda: superset_intervals(single, single, 4, 4)),
        }
    if figure_id == "fig5_13":
        return {
            f"fig5_13{k}": table(chords[k], c4, lambda k=k: superset_intervals(chords[k], c4, 0, 0))
            for k in "abc"
        }
    if figure_id == "fig5_14":
        return {
            "fig5_14a": table(inh_r, inh_r, lambda: rationals(*q4, max_den)),
            "fig5_14b": table(inh_r, inh_r, lambda: superset_intervals(inh_r, inh_r, 0, 0)),
        }
    if figure_id == "fig8_1":
        return {"fig8_1": ("thomae", "classical", e8, max_den)}
    raise KeyError(figure_id)


def check_curve(points: Sequence[tuple[float, float]], F, G, lo, hi, steps, chi_star, rng, sample) -> list[str]:
    """Geometric t grid from lo to hi; a seeded sample of values recomputed."""
    if len(points) != steps:
        return [f"curve has {len(points)} points, expected {steps}"]
    ratio = hi / lo
    for i, (t, d) in enumerate(points):
        want = lo * ratio ** (i / (steps - 1))
        if abs(t - want) > 1e-9 * want or d < 0:
            return [f"curve point {i}: t={t!r} expected {want!r}, d={d!r}"]
    base = [float(f) for f in F]
    moving = [float(g) for g in G]
    for i in sorted(rng.sample(range(steps), min(sample, steps))):
        t, d = points[i]
        want = roughness(base + [t * g for g in moving], chi_star)
        if abs(d - want) > 1e-9 * max(1.0, abs(want)):
            return [f"roughness at t={t!r}: {d!r} expected {want!r}"]
    return []


def check_figure(figure_id: str, max_den: int, steps: int, parts: dict[str, str], rng, sample) -> list[str]:
    spec = figure_parts(figure_id, max_den)
    if sorted(parts) != sorted(spec):
        return [f"{figure_id} parts {sorted(parts)} != {sorted(spec)}"]
    problems = []
    for name, text in parts.items():
        kind, *args = spec[name]
        if kind == "table":
            F, G, make = args
            intervals = make()
            if csv_intervals(text) != intervals:
                problems.append(f"{name}: interval column differs from brute force")
                continue
            # rescore a seeded sample of rows from scratch
            F, G = frozenset(F), frozenset(G)
            lines = text.splitlines(keepends=True)
            picks = sorted(rng.sample(range(len(intervals)), min(sample, len(intervals))))
            sampled = "".join([lines[0]] + [lines[i + 1] for i in picks])
            entries = [(intervals[i], *score(F, G, intervals[i])) for i in picks]
            problems += [f"{name}: {p}" for p in check_table_csv(sampled, entries)]
        elif kind == "curve":
            F, G, lo, hi, chi = args
            rows = list(csv.DictReader(io.StringIO(text)))
            points = [(float(r["t"]), float(r["dissonance"])) for r in rows]
            problems += [f"{name}: {p}" for p in check_curve(points, F, G, lo, hi, steps, chi, rng, sample)]
        else:
            variant, (lo, hi), den = args
            rows = list(csv.DictReader(io.StringIO(text)))
            ts = [Fraction(r["interval_ratio"]) for r in rows]
            if ts != rationals(lo, hi, den):
                problems.append(f"{name}: interval column differs from brute force")
                continue
            for r, t in zip(rows, ts):
                if variant == "classical":
                    ok = float(r["thomae"]) == float(Fraction(1, t.denominator))
                else:
                    # one partial against its transposition: affinity 0 except
                    # at unison, harmonicity 2/max(p, q)
                    ok = float(r["thomae_modified"]) == float(r["total"]) == float(
                        Fraction(1, max(t.numerator, t.denominator))
                    )
                if not ok:
                    problems.append(f"{name}: value at {slash(t)}")
                    break
    return problems
