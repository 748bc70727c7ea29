"""Paired benchmark runs of two checkouts on one workload.

    python3 tools/bench_ab.py PARENT CHANGE --workload W --seed S --pairs N
                              [--seconds T] [--pin-mmap]

PARENT and CHANGE are toneset source trees. Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each tree, one at a time, the parent first in even pairs and the change
first in odd ones, so an order effect falls on both sides alike.
``--pin-mmap`` sets ``MALLOC_MMAP_THRESHOLD_=131072`` in the runs'
environment only, which takes glibc's adaptive mmap threshold out of the
measured memory and speed.

For each end-to-end metric of ``BENCHMARK.json`` (read from the repository
holding this script, never written) one line gives each side's median and
quartiles over its runs, the change's median relative to the parent's, the
pairs the change won (ties count for neither side) and the metric's bound;
"beyond bound" marks a median worse than the parent's by more than it. The
line ends with "claim shown" when at least 10 pairs ran, the change won at
least 9 in 10 of them and its median is better than the parent's by more
than the parent's quartile spread, the rule for claiming a gain; with "not
shown (fewer than 10 pairs)" when fewer ran; otherwise with "not shown".
Then the runs' output digests are compared. Exits 1 when a run exits
nonzero, is not ``correct`` or has failed jobs, and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MMAP_THRESHOLD = "131072"
_DIGEST = re.compile(r"^digest \S+ seed=\S+: (sha256:[0-9a-f]+)$", re.MULTILINE)


class Run(NamedTuple):
    correct: bool
    failed: int
    metrics: dict[str, float]
    digest: str | None


def parse_run(stdout: str) -> Run:
    """A run's result line (the last line of its output) and digest line."""
    result = json.loads(stdout.splitlines()[-1])
    digest = _DIGEST.search(stdout)
    return Run(
        result["correct"],
        result["failed"],
        {name: metric["value"] for name, metric in result["metrics"].items()},
        digest and digest.group(1),
    )


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(parent: list[Run], change: list[Run], end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric over paired runs, then the digests."""
    lines = []
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        a = [run.metrics[name] for run in parent]
        b = [run.metrics[name] for run in change]
        (aq1, am, aq3), (bq1, bm, bq3) = _quartiles(a), _quartiles(b)
        relative = (bm - am) / am if am else 0.0
        won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        flag = "  beyond bound" if -sign * relative > spec["bound"] else ""
        shown = 10 * won >= 9 * len(a) and sign * (bm - am) > aq3 - aq1
        verdict = "not shown (fewer than 10 pairs)" if len(a) < 10 else "claim shown" if shown else "not shown"
        lines.append(
            f"{name}: parent {am:.6g} [{aq1:.6g}, {aq3:.6g}]  change {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  "
            f"{relative:+.1%}  won {won}/{len(a)}  bound {spec['bound']:.0%} ({spec['better']} is better){flag}  "
            f"{verdict}"
        )
    digests = {run.digest for run in parent + change}
    lines.append("digests: " + ("equal" if len(digests) == 1 else "differ " + " ".join(sorted(map(str, digests)))))
    return lines


def faults(side: str, runs: list[Run]) -> list[str]:
    """A line for each run that is not correct or has failed jobs."""
    return [
        f"{side} run {index}: correct={run.correct}, failed={run.failed}"
        for index, run in enumerate(runs)
        if not run.correct or run.failed
    ]


def _run(tree: Path, args, env: dict) -> Run:
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{tree}: perfbench/run.py exited {done.returncode}:\n{done.stderr}")
    return parse_run(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pin-mmap", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    env = {**os.environ, **({"MALLOC_MMAP_THRESHOLD_": MMAP_THRESHOLD} if args.pin_mmap else {})}
    parent: list[Run] = []
    change: list[Run] = []
    sides = ((args.parent, parent), (args.change, change))
    try:
        for pair in range(args.pairs):
            for tree, runs in sides if pair % 2 == 0 else sides[::-1]:
                runs.append(_run(tree, args, env))
            print(f"pair {pair}: parent {parent[-1].metrics['throughput_jobs_s']:.6g} jobs/s, "
                  f"change {change[-1].metrics['throughput_jobs_s']:.6g} jobs/s", flush=True)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print("\n".join(summary(parent, change, end_to_end)))
    problems = faults("parent", parent) + faults("change", change)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
