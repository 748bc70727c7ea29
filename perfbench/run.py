"""toneset benchmark: seeded closed-loop workloads with an exact oracle.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload generators --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists and what it leaves out):

* ``generators``  - library calls to harmonic_tuning / superset_tuning, each
  table written as a CSV document;
* ``cli-session`` - in-process ``toneset`` command sessions;
* ``roughness``   - ``dissonance_curve`` sweeps;
* ``all``         - the three above in turn, each in its own process.

One client runs one job at a time (closed loop). A run repeats the
workload's seeded round of jobs until ``--seconds`` of job and
reference-kernel wall time is spent, finishing the round it is in. Every
job's output is checked by the oracle the first time the round runs, outside
the timed region, and later rounds must reproduce it bit for bit. Job times
are CPU times rescaled to a reference speed of the host (see
``reference_ns`` and ``run_round``). With
``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from a traced pass, per round of
the workload. Human-readable lines before it give every metric with its
unit and sample count, the environment, the error rate and a SHA-256 digest
of all outputs of the round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8  # extra fresh-process set-ups, so setup_s is a median of 9
HELD_OUT_SEED = 7919  # reserved for confirming claims; do not tune against it
WORKLOADS = ("generators", "cli-session", "roughness")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_jobs_s": "jobs/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    from tracer import LAYERS

    units = {}
    for name in ("core.transpose", "core.fundamental", "core.frequency_set",
                 "consonance.harmonicity", "consonance.total_consonance", "notes.note_name"):
        units[f"{name}.calls"] = "count"
    for name in ("core.transpose", "core.fundamental", "core.frequency_set", "consonance.affinity",
                 "consonance.harmonicity", "consonance.total_consonance", "tuning.enumerate_rationals",
                 "tuning.harmonic_tuning", "tuning.superset_tuning", "tuning.affinitive_tuning",
                 "tuning.octave_reduce", "notation.parse_set_expression", "notes.note_name",
                 "document.from_table", "document.to_json", "document.from_json", "document.to_csv",
                 "document.export_scl", "figures.emit_figure_data", "cli.main", "dissonance.dissonance_curve"):
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "tuning.candidates_enumerated": "count", "tuning.candidates_kept": "count",
        "tuning.affinitive.pairs": "count", "tuning.superset.max_k": "count",
        "tuning.keep_ratio": "ratio", "tuning.affinitive.distinct_ratio": "ratio",
        "document.bytes_written": "bytes", "figures.csv_bytes": "bytes", "cli.commands": "count",
        "dissonance.pair_evaluations": "count", "dissonance.array_bytes_computed": "bytes",
    })
    for layer in LAYERS:
        units[f"layer.{layer}.self_ms"] = "ms"
    units["trace.job_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def environment(seed: int) -> dict:
    import numpy

    cpu, caches = "unknown", {}
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "commit": git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def interpreter_kernel() -> int:
    """Fixed pure-Python work of the kind toneset's rational layers do:
    Fractions, dicts, string formatting, integer arithmetic and sorting."""
    acc, names = Fraction(0), {}
    for i in range(1, 60):
        x = Fraction(i * 7 % 113 + 1, i % 31 + 1)
        acc += x
        names[x] = f"{x.numerator}/{x.denominator}"
    text = ",".join(names[v] for v in sorted(names, key=lambda v: (v.denominator, v)))
    t, values = 0, []
    for i in range(1, 1500):
        t = (t * 31 + i) % 1000003
        values.append(t & 1023)
    values.sort()
    return len(text) + sum(values) + acc.denominator


def array_kernel() -> float:
    """Fixed numpy work of the kind a roughness sweep does: pairwise minima
    and differences broadcast over 8 x 128 x 128 arrays (1 MiB each), two
    exponentials and a masked sum."""
    import numpy  # imported by toneset during set-up, not before it

    spectra = numpy.linspace(100.0, 900.0, 8 * 128).reshape(8, 128)
    fi, fj = spectra[:, :, None], spectra[:, None, :]
    x = 0.24 / (0.0207 * numpy.minimum(fi, fj) + 18.96) * numpy.abs(fj - fi)
    pair = numpy.exp(-3.51 * x)
    pair += numpy.exp(-5.75 * x)
    upper = numpy.triu(numpy.ones((128, 128), dtype=bool), k=1)
    return float(pair[:, upper].sum())


# Each workload's reference kernel and the kernel's time, in ns, at the
# reference speed: about its time in the fast spells of the host the
# benchmark was built on (Intel Xeon vCPU, 2.1 GHz). Nothing in a kernel
# comes from toneset, so a change to the package cannot change its time.
REFERENCE = {
    "generators": (interpreter_kernel, 550_000),
    "cli-session": (interpreter_kernel, 550_000),
    "roughness": (array_kernel, 2_500_000),
}


def reference_ns(kernel) -> int:
    """CPU time of one call of a reference kernel.

    The host's speed swings up to twofold within seconds, and CPU time
    swings with wall time, so neither tells job cost apart from host speed.
    Timing the workload's kernel next to every job measures the speed the
    job ran at; the job's time times the kernel's reference time over its
    measured time is the job's time at the reference speed.
    """
    start = process_time_ns()
    kernel()
    return process_time_ns() - start


def setup(workload: str, seed: int, tiny: bool, workdir: Path):
    """Import toneset, build the seeded round and warm up; returns (s, round).

    The set-up's wall time is rescaled to the reference speed with the
    median of nine calls of ``interpreter_kernel`` made just before it and
    nine made just after it: importing and building the round is
    interpreted work for every workload.
    """
    kernel, ref_ns = REFERENCE["generators"]
    kernel_ns = [reference_ns(kernel) for _ in range(9)]
    start = perf_counter()
    import jobs

    round_jobs = jobs.build(workload, seed, tiny, workdir)
    jobs.warm_up(workload, workdir)
    seconds = perf_counter() - start
    kernel_ns += [reference_ns(kernel) for _ in range(9)]
    speed = ref_ns / statistics.median(kernel_ns)
    for _ in range(5):
        reference_ns(REFERENCE[workload][0])  # warm the workload's kernel
    return seconds * speed, round_jobs


def probe_setups(args, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        argv = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
                "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Outcome:
    """Latencies and failures of one pass over the round, repeated."""

    def __init__(self, size: int, reference=None):
        self.reference = reference  # (kernel, ns): report times at its speed
        self.latencies_ns: list[float] = []
        self.rounds_ns: list[float] = []
        self.wall_rounds_ns: list[int] = []  # wall time of jobs and kernels
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[bytes | None] = [None] * size


def run_round(round_jobs, outcome: Outcome, rng, tracer=None, rep=0) -> None:
    """Run every job once; check it the first time, compare digests after.

    Jobs timed against a reference kernel are timed, like the kernel, in
    the process's CPU time, so time spent waiting for a CPU is left out of
    both; the jobs do no blocking I/O, so on an idle host this is their
    wall time. Traced rounds are timed in wall time, like their spans.
    """
    clock = process_time_ns if outcome.reference else perf_counter_ns
    elapsed_ns, kernel_ns, wall_ns = [], [], 0
    for slot, job in enumerate(round_jobs):
        error = None
        job.prepare()
        wall = perf_counter_ns()
        if outcome.reference:
            kernel_ns.append(reference_ns(outcome.reference[0]))
        start = clock()
        try:
            raw = job.run() if tracer is None else tracer.run_job(f"{rep}:{slot}", job.run)
        except Exception as exc:  # a job that raises is counted, not fatal
            error = exc
        elapsed_ns.append(clock() - start)
        wall_ns += perf_counter_ns() - wall
        outcome.attempted += 1
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            output = job.collect(raw)
            digest = job.digest(output)
            if outcome.digests[slot] is None:
                problems = job.check(output, rng)
                outcome.digests[slot] = digest if not problems else b"failed"
            else:
                problems = [] if digest == outcome.digests[slot] else ["output differs from the first round"]
        if problems:
            outcome.failed += 1
            outcome.problems.append(f"{job.name}: {problems[0]}")
    if outcome.reference:
        # the host's speed during a job: the mean of the kernel just before
        # and just after it
        kernel, ref_ns = outcome.reference
        wall = perf_counter_ns()
        kernel_ns.append(reference_ns(kernel))
        wall_ns += perf_counter_ns() - wall
        latencies = [e * 2 * ref_ns / (a + b) for e, a, b in zip(elapsed_ns, kernel_ns, kernel_ns[1:])]
    else:
        latencies = elapsed_ns
    outcome.latencies_ns += latencies
    outcome.rounds_ns.append(sum(latencies))
    outcome.wall_rounds_ns.append(wall_ns)


def run_until(round_jobs, seconds: float, outcome: Outcome, rng, after_round=lambda: None) -> None:
    while not outcome.rounds_ns or sum(outcome.wall_rounds_ns) < seconds * 1e9:
        run_round(round_jobs, outcome, rng)
        after_round()


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def end_to_end(outcome: Outcome, setup_samples: list[float]) -> dict:
    latencies_ms = [v / 1e6 for v in outcome.latencies_ns]
    n = len(latencies_ms)
    rounds = outcome.rounds_ns
    # the median round resists the host's bursts better than the mean
    round_s = statistics.median(rounds) / 1e9
    return {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "throughput_jobs_s": (n / len(rounds) / round_s, len(rounds)),
        "latency_p50_ms": (statistics.median(latencies_ms), n),
        "latency_p90_ms": (quantile(latencies_ms, 0.90), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def traced(round_jobs, seconds: float, rng, spans_path: Path) -> tuple[dict, Outcome]:
    """Per-layer metrics for one round; timers are medians over traced rounds.

    Counts come from the first traced round, which follows only the warm-up,
    so they repeat exactly for a seed. The untraced rounds that follow give
    the tracing overhead.
    """
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    outcome = Outcome(len(round_jobs))
    first = None
    self_ms: dict[str, list[float]] = {}
    tracer.install()
    try:
        rep = 0
        while rep == 0 or sum(outcome.wall_rounds_ns) < seconds / 2 * 1e9:
            tracer.reset(record_spans=rep == 0)
            run_round(round_jobs, outcome, rng, tracer, rep)
            if rep == 0:
                first = (tracer.calls, tracer.counts)
                span_count = tracer.write_spans(spans_path)
            totals: dict[str, float] = {}
            for name, ns in tracer.self_ns.items():
                totals[f"{name}.self_ms"] = ns / 1e6
                layer = f"layer.{name.split('.')[0]}.self_ms"
                totals[layer] = totals.get(layer, 0.0) + ns / 1e6
            totals["trace.job_ms"] = outcome.rounds_ns[-1] / 1e6
            for key, value in totals.items():
                self_ms.setdefault(key, []).append(value)
            rep += 1
    finally:
        tracer.uninstall()
    traced_rounds = list(outcome.rounds_ns)
    plain = Outcome(len(round_jobs))
    plain.digests = outcome.digests
    run_until(round_jobs, seconds / 2, plain, rng)
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    outcome.problems += plain.problems

    calls, counts = first
    metrics = {}
    for name, unit in per_layer_units().items():
        if unit == "ms":
            values = self_ms.get(name, [0.0] * len(traced_rounds))
            metrics[name] = (statistics.median(values), len(values))
        elif name.endswith(".calls"):
            metrics[name] = (calls.get(name[: -len(".calls")], 0), 1)
    metrics["cli.commands"] = (calls.get("cli.main", 0), 1)
    for name in ("tuning.candidates_enumerated", "tuning.candidates_kept", "tuning.affinitive.pairs",
                 "tuning.superset.max_k", "document.bytes_written", "figures.csv_bytes",
                 "dissonance.pair_evaluations", "dissonance.array_bytes_computed"):
        metrics[name] = (counts.get(name, 0), 1)
    enumerated = counts.get("tuning.candidates_enumerated", 0)
    pairs = counts.get("tuning.affinitive.pairs", 0)
    metrics["tuning.keep_ratio"] = (counts.get("tuning.candidates_kept", 0) / enumerated if enumerated else 0.0, 1)
    metrics["tuning.affinitive.distinct_ratio"] = (counts.get("tuning.affinitive.distinct", 0) / pairs if pairs else 0.0, 1)
    overhead = statistics.median(traced_rounds) / statistics.median(plain.rounds_ns) - 1
    metrics["trace.overhead_ratio"] = (overhead, len(traced_rounds))
    print(f"spans: {span_count} from the first traced round written to {spans_path.relative_to(ROOT)}")
    job_ms = metrics["trace.job_ms"][0]
    shares = {layer: metrics[f"layer.{layer}.self_ms"][0] / job_ms for layer in LAYERS}
    print("layer self-time shares of traced job time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    return metrics, outcome


def report(args, metrics: dict, units: dict, outcome: Outcome, digest: str, round_size: int) -> None:
    print(f"env: {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"workload {args.workload}: seed {args.seed}, {round_size} jobs per round, "
          f"{len(outcome.rounds_ns)} rounds, {outcome.attempted} jobs")
    print("round wall seconds: " + " ".join(f"{ns / 1e9:.3f}" for ns in outcome.wall_rounds_ns))
    if outcome.reference:
        print("round job CPU seconds at the reference speed: "
              + " ".join(f"{ns / 1e9:.3f}" for ns in outcome.rounds_ns))
    print(f"digest {args.workload} seed={args.seed}: sha256:{digest}")
    error_rate = outcome.failed / outcome.attempted
    print(f"error_rate = {error_rate:.6g} ratio (failed {outcome.failed} of {outcome.attempted} jobs)")
    for problem in outcome.problems[:10]:
        print(f"  failure: {problem}")
    for name, (value, samples) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} (samples={samples})")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="wall time of jobs and reference kernels to measure (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small job sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "toneset" / "__init__.py").is_file():
        print(f"error: no toneset sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)

    workdir = HERE / "out" / f"work-{os.getpid()}"
    try:
        seconds, round_jobs = setup(args.workload, args.seed, args.tiny, workdir)
        import toneset

        if Path(toneset.__file__).resolve().parent != src / "toneset":
            print(f"error: imported toneset from {toneset.__file__}, not {src}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(seconds)
            return 0
        rng = random.Random(f"oracle:{args.seed}")
        if args.trace:
            spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, outcome = traced(round_jobs, args.seconds, rng, spans_path)
            units = per_layer_units()
        else:
            outcome = Outcome(len(round_jobs), REFERENCE[args.workload])
            setup_samples = [seconds]
            probes = 1 if args.tiny else SETUP_PROBES

            def probe():
                # between rounds, so a slow spell of the host does not sway
                # every probe at once
                if len(setup_samples) <= probes:
                    setup_samples.extend(probe_setups(args, 1))

            run_until(round_jobs, args.seconds, outcome, rng, probe)
            setup_samples += probe_setups(args, probes + 1 - len(setup_samples))
            metrics, units = end_to_end(outcome, setup_samples), END_TO_END_UNITS
        digest = round_digest(outcome.digests)
        report(args, metrics, units, outcome, digest, len(round_jobs))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def round_digest(digests) -> str:
    """SHA-256 over the per-job output digests of one round, in job order."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d or b"missing")
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
