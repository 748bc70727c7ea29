"""Seeded job lists for the three workloads.

A workload is one fixed round of jobs that the benchmark repeats until the
run's measuring time is spent. The seed chooses the content of every job
(fundamentals, which partials, threshold, order); the slot structure that
sets each job's cost (family, set size, enumeration bounds, sweep size) is
fixed, so runs with different seeds cost nearly the same and their figures
can be compared. Jobs receive plain ``Fraction`` tuples and strings, build
their own ``FrequencySet`` values inside the timed region, and return
outputs that :mod:`oracle` checks outside it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import random
import shutil
from array import array
from fractions import Fraction
from pathlib import Path

import oracle
import toneset
from toneset import cli

EIGHTH, QUARTER = (Fraction(1, 8), Fraction(8)), (Fraction(1, 4), Fraction(4))
ORACLE_SAMPLE = 24  # entries rescored from scratch per checked table


def _digest(*parts: str | bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.digest()


def _expr(values) -> str:
    return ",".join(oracle.slash(v) for v in values)


class Job:
    """A benchmark job: ``prepare`` runs untimed, ``run`` is timed, and
    ``collect``, ``digest`` and ``check`` turn its result into checked output
    outside the timed region."""

    name: str

    def prepare(self) -> None:
        pass

    def collect(self, raw):
        return raw


# --- generators -------------------------------------------------------------


class GeneratorJob(Job):
    """``harmonic_tuning`` or ``superset_tuning`` plus the CSV document."""

    def __init__(self, name, generator, F, G, *, h=0, bounds=QUARTER, max_den=0, n=0, m=0):
        self.name, self.generator = name, generator
        self.F, self.G = tuple(sorted(set(F))), tuple(sorted(set(G)))
        self.h, self.bounds, self.max_den, self.n, self.m = Fraction(h), bounds, max_den, n, m
        self.exprs = (_expr(self.F), _expr(self.G))

    def run(self):
        F, G = toneset.FrequencySet(self.F), toneset.FrequencySet(self.G)
        if self.generator == "harmonic":
            table = toneset.harmonic_tuning(F, G, self.h, *self.bounds, self.max_den)
        else:
            table = toneset.superset_tuning(F, G, self.n, self.m)
        document = toneset.TuningDocument.from_table(table, *self.exprs)
        return table, document.to_csv()

    def digest(self, output) -> bytes:
        table, text = output
        exact = "\n".join(
            f"{oracle.slash(e.interval)},{oracle.slash(e.score.affinity)},{oracle.slash(e.score.harmonicity)}"
            for e in table.entries
        )
        return _digest(exact, text)

    def check(self, output, rng) -> list[str]:
        table, text = output
        entries = [(e.interval, e.score.affinity, e.score.harmonicity) for e in table.entries]
        if self.generator == "harmonic":
            expected = oracle.harmonic_intervals(self.F, self.G, self.h, *self.bounds, self.max_den)
        else:
            expected = oracle.superset_intervals(self.F, self.G, self.n, self.m)
        problems = oracle.check_entries(entries, self.F, self.G, expected, rng, ORACLE_SAMPLE)
        if any(e.score.total != (e.score.affinity + e.score.harmonicity) / 2 for e in table.entries):
            problems.append("total is not the mean of affinity and harmonicity")
        return problems or oracle.check_table_csv(text, entries)


def _fundamental(rng) -> Fraction:
    """One-decimal fundamental between 55 and 440 Hz."""
    return Fraction(rng.randrange(550, 4401), 10)


def _sparse(rng, size: int, span: int) -> list[int]:
    """``size`` distinct harmonic numbers from 1..span with gcd 1."""
    while True:
        picks = sorted(rng.sample(range(1, span + 1), size))
        if math.gcd(*picks) == 1:
            return picks


def _inharmonic(rng, top: int, size: int = 6) -> list[Fraction]:
    """Partials 1, a_2/10, ..., top/10 with one decimal digit and gcd 1/10."""
    while True:
        middle = rng.sample(range(11, top), size - 2)
        if any(a % 2 and a % 5 for a in middle + [top]):
            return [Fraction(a, 10) for a in sorted([10] + middle + [top])]


def generators_round(rng: random.Random, tiny: bool) -> list[GeneratorJob]:
    jobs = []

    def add(name, generator, F, G, **kw):
        jobs.append(GeneratorJob(name, generator, F, G, **kw))

    def jitter(d):
        return d + rng.randint(-1, 1)

    def inharmonic(top):
        f = Fraction(rng.randrange(100, 400))
        return [f * r for r in _inharmonic(rng, top)]

    copies = 1 if tiny else 3
    # single partials: scoring is cheapest, so enumeration's share is largest
    single_slots = [("h0", 0, EIGHTH, 20), ("h0", 0, QUARTER, 32),
                    ("h>0", Fraction(1, 12), EIGHTH, 36), ("h>0", Fraction(1, 16), QUARTER, 48)]
    for label, h, bounds, den in single_slots[: 1 if tiny else None]:
        for _ in range(copies):
            f = _fundamental(rng)
            g = f * rng.choice((Fraction(1), Fraction(3, 2), Fraction(4, 3), Fraction(5, 4)))
            add(f"single-harmonic-{label}", "harmonic", [f], [g], h=h, bounds=bounds, max_den=jitter(den))
    for _ in range(copies):
        f = _fundamental(rng)
        add("single-superset", "superset", [f], [f], n=rng.randint(2, 8), m=rng.randint(2, 8))

    # sparse integer-harmonic subsets, 2 to 64 partials
    for size in (2, 8) if tiny else (2, 4, 8, 16, 32, 64):
        span = max(16, 2 * size)
        for _ in range(1 if tiny else 2):
            f = _fundamental(rng)
            F = [f * k for k in _sparse(rng, size, span)]
            G = [f * k for k in _sparse(rng, size, span)]
            add(f"sparse{size}-harmonic-h0", "harmonic", F, G, h=0, bounds=QUARTER, max_den=jitter(12))
            # threshold at a quarter of the sets' own density: most candidates fail
            h = Fraction(size, 4 * span)
            add(f"sparse{size}-harmonic-h>0", "harmonic", F, G, h=h, bounds=EIGHTH, max_den=jitter(14))
        if size <= 32:
            S = [f * k for k in _sparse(rng, size, size + 8)]
            add(f"sparse{size}-superset", "superset", S, S)

    # inharmonic spectra with one decimal digit per partial (like fig5_14);
    # the superset sizes k of F and F' set the cost, about k_F * k_F'
    pairs = [(47, 41), (89, 19)] if tiny else [(47, 47), (61, 37), (97, 23), (113, 21), (131, 19), (157, 17), (189, 16)]
    for top_f, top_g in pairs:
        add(f"inharmonic{top_f}x{top_g}-superset", "superset", inharmonic(top_f), inharmonic(top_g))
    for _ in range(copies):
        F, G = inharmonic(rng.randrange(60, 190)), inharmonic(rng.randrange(60, 190))
        add("inharmonic-harmonic-h0", "harmonic", F, G, h=0, bounds=QUARTER, max_den=jitter(24))
        add("inharmonic-harmonic-h>0", "harmonic", F, G, h=Fraction(1, 400), bounds=QUARTER, max_den=jitter(30))
    rng.shuffle(jobs)
    return jobs


# --- cli-session ------------------------------------------------------------


def _decimal(value: Fraction) -> str:
    """Exact decimal text of a value whose denominator divides a power of 10."""
    places = 0
    while (value * 10**places).denominator != 1:
        places += 1
    digits = str(int(value * 10**places)).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}" if places else f"{digits}.0"


def _term(rng, kind: str, base: int, size) -> tuple[str, list[Fraction]]:
    if kind == "harmonic":
        return f"{base}*N{size}", [Fraction(base * k) for k in range(1, size + 1)]
    if kind == "decimals":
        values = [Fraction(base * m, 2) for m in sorted(rng.sample((1, 3, 5, 7, 9, 11), size))]
        return ",".join(_decimal(v) for v in values), values
    ratio, count = size
    ref = base * ratio
    return f"{oracle.note_label(ref)}_{count}@{_decimal(ref)}", [ref * k for k in range(1, count + 1)]


def _set_expression(rng, shape: dict) -> tuple[str, tuple[Fraction, ...]]:
    base = rng.randrange(111, 331, 2)  # odd, so decimal terms keep their .5
    kinds = list(shape)
    rng.shuffle(kinds)
    terms = [_term(rng, kind, base, shape[kind]) for kind in kinds]
    values = sorted({v for _, vs in terms for v in vs})
    return "+".join(text for text, _ in terms), tuple(values)


# Term sizes of F and F' for successive sessions: harmonic partial counts,
# decimal value counts, (note interval above the base, partial count). The
# sizes set a session's cost, so they are fixed; the seed picks the bases,
# the decimal multiples and the term order.
SESSION_SHAPES = [
    ({"harmonic": 3, "decimals": 2, "note": (Fraction(3, 2), 3)}, {"harmonic": 3}),
    ({"harmonic": 4, "decimals": 3, "note": (Fraction(2), 2)}, {"note": (Fraction(2), 3)}),
    ({"harmonic": 2, "decimals": 2, "note": (Fraction(3), 2)}, {"decimals": 2, "harmonic": 2}),
    ({"harmonic": 5, "decimals": 3, "note": (Fraction(3, 2), 4)}, {"note": (Fraction(3, 2), 2), "decimals": 3}),
]


class Session:
    """One user session: two set expressions and a scratch directory."""

    def __init__(self, rng, shape, directory: Path):
        self.a_expr, self.A = _set_expression(rng, shape[0])
        self.b_expr, self.B = _set_expression(rng, shape[1])
        self.dir = directory
        self.a_json, self.r_json = str(directory / "a.json"), str(directory / "r.json")

    # expected results, derived only when the oracle first needs them

    @functools.cached_property
    def affinitive(self) -> list[Fraction]:
        return oracle.pairwise(self.A, self.B)

    @functools.cached_property
    def folded(self) -> list[Fraction]:
        return sorted({oracle.fold(t) for t in self.affinitive})

    @functools.cached_property
    def note_root(self) -> Fraction | None:
        root = min(self.A)
        return root if any(oracle.note_label(root * t) for t in self.affinitive) else None


class CliJob(Job):
    """One ``toneset`` command run in-process with stdout captured."""

    def __init__(self, name, session: Session, argv: list[str], outputs=(), figure=None):
        self.name, self.session, self.argv, self.outputs, self.figure = name, session, argv, outputs, figure

    def prepare(self) -> None:
        """Remove this session's files before its first command, so every
        round creates them afresh instead of truncating the last round's."""
        if self.argv[0] == "consonance":
            shutil.rmtree(self.session.dir, ignore_errors=True)
            self.session.dir.mkdir(parents=True)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def collect(self, raw):
        files = {}
        for path in self.outputs:
            files[path] = Path(path).read_text()
        if self.figure is not None:
            for path in sorted(self.figure[0].glob("*.csv")):
                files[path.stem] = path.read_text()
        return raw, files

    def digest(self, output) -> bytes:
        (code, out, err), files = output
        return _digest(str(code), out, err, *(f"{k}\0{v}" for k, v in sorted(files.items())))

    def check(self, output, rng) -> list[str]:
        (code, out, err), files = output
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        s = self.session
        command = self.argv[0]
        if command == "consonance":
            return oracle.check_consonance_text(out, s.A, s.B)
        if command == "affinitive":
            return oracle.check_document(files[s.a_json], s.A, s.B, s.affinitive, rng, ORACLE_SAMPLE, s.note_root)
        if command == "reduce-octave":
            return oracle.check_document(files[s.r_json], s.A, s.B, s.folded, rng, ORACLE_SAMPLE, s.note_root)
        if command == "export-scl":
            return oracle.check_scl(out, s.folded)
        if command == "superset":
            n, m = (4 if len(X) == 1 else 0 for X in (s.A, s.B))
            expected = oracle.superset_intervals(s.A, s.B, n, m)
            return oracle.check_text_table(out, s.A, s.B, expected, rng, ORACLE_SAMPLE)
        _, figure_id, max_den, steps = self.figure
        return oracle.check_figure(figure_id, max_den, steps, files, rng, 3)


def _session_jobs(session: Session, index: int) -> list[CliJob]:
    s = session
    return [
        CliJob(f"s{index}-consonance", s, ["consonance", s.a_expr, s.b_expr]),
        CliJob(f"s{index}-affinitive", s, ["affinitive", s.a_expr, s.b_expr, "--notes", "-o", s.a_json], [s.a_json]),
        CliJob(f"s{index}-reduce-octave", s, ["reduce-octave", "--in", s.a_json, "-o", s.r_json], [s.r_json]),
        CliJob(f"s{index}-export-scl", s, ["export-scl", "--in", s.r_json]),
        CliJob(f"s{index}-superset", s, ["superset", s.a_expr, s.b_expr, "--format", "text"]),
    ]


def cli_round(rng: random.Random, tiny: bool, workdir: Path) -> list[CliJob]:
    figure_ids = toneset.supported_figures()
    rng.shuffle(figure_ids)
    if tiny:
        figure_ids = ["fig5_12", "fig4_2"]
    sessions_per_figure = 4  # figure jobs stay near 5% of jobs, below p90
    jobs = []
    for index in range(sessions_per_figure * len(figure_ids)):
        directory = workdir / f"s{index:03d}"
        directory.mkdir(parents=True, exist_ok=True)
        session = Session(rng, SESSION_SHAPES[index % len(SESSION_SHAPES)], directory)
        jobs += _session_jobs(session, index)
        if index % sessions_per_figure == 0:
            figure_id = figure_ids[index // sessions_per_figure]
            max_den, steps = rng.randint(15, 16), rng.randint(250, 300)
            out_dir = directory / "figure"
            argv = ["figure", figure_id, "--max-den", str(max_den), "--steps", str(steps), "--out-dir", str(out_dir)]
            jobs.append(CliJob(f"s{index}-{figure_id}", session, argv, figure=(out_dir, figure_id, max_den, steps)))
    return jobs


# --- roughness --------------------------------------------------------------


class RoughnessJob(Job):
    """``dissonance_curve`` sweep of two harmonic spectra."""

    def __init__(self, name, F, G, hi, steps):
        self.name, self.F, self.G, self.hi, self.steps = name, tuple(F), tuple(G), hi, steps

    def run(self):
        F, G = toneset.FrequencySet(self.F), toneset.FrequencySet(self.G)
        return toneset.dissonance_curve(F, G, 1.0, self.hi, self.steps)

    def collect(self, points):
        return array("d", (v for p in points for v in (p.t, p.dissonance)))

    def digest(self, output) -> bytes:
        return _digest(output.tobytes())

    def check(self, output, rng) -> list[str]:
        points = list(zip(output[0::2], output[1::2]))
        return oracle.check_curve(points, self.F, self.G, 1.0, self.hi, self.steps, 0.24, rng, 3)


# (partials of F, partials of G, steps, how many per round); memory grows as
# steps * (nF + nG)^2, and the 64+64 slot sets the peak.
ROUGHNESS_SLOTS = [
    (8, 8, 2000, 3), (12, 12, 2000, 2), (16, 16, 1500, 2), (8, 24, 1000, 1), (24, 24, 1000, 2),
    (32, 32, 1000, 1), (40, 40, 700, 1), (16, 48, 800, 1), (48, 48, 500, 1), (64, 64, 500, 1),
]


def roughness_round(rng: random.Random, tiny: bool) -> list[RoughnessJob]:
    slots = [(8, 8, 200, 1), (12, 16, 100, 1)] if tiny else ROUGHNESS_SLOTS
    jobs = []
    for nF, nG, steps, count in slots:
        for _ in range(count):
            f, g = _fundamental(rng), _fundamental(rng)
            # the sweep's top moves a job's cost by up to a fifth, so it goes
            # with the slot, not the seed
            hi = (2.1, 2.3, 4.0)[len(jobs) % 3]
            F = [f * k for k in range(1, nF + 1)]
            G = [g * k for k in range(1, nG + 1)]
            jobs.append(RoughnessJob(f"{nF}+{nG}x{steps}", F, G, hi, steps))
    # a fixed order keeps the allocator's history, and so peak RSS, the same
    # for every seed
    return jobs


# --- entry points -------------------------------------------------------------

WORKLOADS = ("generators", "cli-session", "roughness")


def build(workload: str, seed: int, tiny: bool, workdir: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "generators":
        # three draws of every slot, so the latency quantiles rest on three
        # times as many distinct jobs and move less from seed to seed
        round_jobs = [job for _ in range(1 if tiny else 3) for job in generators_round(rng, tiny)]
        rng.shuffle(round_jobs)
        return round_jobs
    if workload == "cli-session":
        return cli_round(rng, tiny, workdir)
    return roughness_round(rng, tiny)


def warm_up(workload: str, workdir: Path) -> None:
    """One small fixed job of the workload's kind, run before timing starts."""
    rng = random.Random("warm-up")
    if workload == "generators":
        jobs = [GeneratorJob("warm-up", "harmonic", [Fraction(1)], [Fraction(1)], max_den=8)]
    elif workload == "cli-session":
        directory = workdir / "warm-up"
        directory.mkdir(parents=True, exist_ok=True)
        jobs = _session_jobs(Session(rng, SESSION_SHAPES[0], directory), 0)
    else:
        jobs = [RoughnessJob("warm-up", [Fraction(100)] * 1, [Fraction(150)], 2.1, 50)]
    for job in jobs:
        job.run()
