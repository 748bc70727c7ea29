"""Self-tests of the benchmark: the oracle must catch wrong outputs, a tiny
run must print every metric ``BENCHMARK.json`` names, counts must repeat for
a seed, and without toneset sources the benchmark must refuse to run.

Run from the root of a source checkout (takes about half a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs  # noqa: E402
import oracle  # noqa: E402
import toneset  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def tiny_all(trace: int, seed: int = 3) -> tuple[list[str], dict]:
    done = run_bench("--workload", "all", "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny")
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def with_entry(table, index, **score):
    entries = list(table.entries)
    entry = entries[index]
    entries[index] = dataclasses.replace(entry, score=dataclasses.replace(entry.score, **score))
    return dataclasses.replace(table, entries=tuple(entries))


class OracleCatchesWrongOutput(unittest.TestCase):
    def setUp(self):
        # seven entries, so the oracle's sample covers every one
        F = [Fraction(262), Fraction(393)]
        self.job = jobs.GeneratorJob("superset", "superset", F, F)
        self.table, self.text = self.job.run()

    def check(self, table):
        return self.job.check((table, self.text), random.Random(0))

    def test_correct_output_passes(self):
        self.assertEqual(self.check(self.table), [])

    def test_harmonicity_numerator_plus_one_fails(self):
        h = self.table.entries[3].score.harmonicity
        wrong = with_entry(self.table, 3, harmonicity=Fraction(h.numerator + 1, h.denominator))
        self.assertNotEqual(self.check(wrong), [])

    def test_missing_interval_fails(self):
        missing = dataclasses.replace(self.table, entries=self.table.entries[:2] + self.table.entries[3:])
        self.assertNotEqual(self.check(missing), [])

    def test_entry_checker_directly(self):
        F = G = [Fraction(1), Fraction(2), Fraction(3)]
        expected = oracle.pairwise(F, G)
        entries = [(t, *oracle.score(frozenset(F), frozenset(G), t)) for t in expected]
        rng = random.Random(0)
        self.assertEqual(oracle.check_entries(entries, F, G, expected, rng, len(entries)), [])
        t, a, h = entries[0]
        bumped = [(t, a, Fraction(h.numerator + 1, h.denominator))] + entries[1:]
        self.assertNotEqual(oracle.check_entries(bumped, F, G, expected, rng, len(entries)), [])
        self.assertNotEqual(oracle.check_entries(entries[1:], F, G, expected, rng, len(entries)), [])

    def test_oracle_matches_package_scoring(self):
        F = toneset.harmonic_set(262, 6)
        for t in (Fraction(3, 2), Fraction(5, 4), Fraction(7, 3)):
            score = toneset.total_consonance(F, F.transpose(t))
            self.assertEqual(oracle.score(frozenset(F), frozenset(F), t), (score.affinity, score.harmonicity))

    def test_note_labels_agree(self):
        for freq in (Fraction(262), Fraction(440), Fraction(2761, 10), Fraction(5000)):
            self.assertEqual(oracle.note_label(freq), toneset.note_name(freq).render())


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def assert_reports(self, trace: int, names: dict) -> dict:
        lines, result = tiny_all(trace)
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        for workload in self.workloads:
            for name, unit in names.items():
                self.assertEqual(result["metrics"][f"{workload}.{name}"]["unit"], unit)
                self.assertTrue(any(line.startswith(f"{name} = ") and f" {unit} (samples=" in line for line in lines))
        return result

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.assert_reports(0, self.end_to_end)

    def test_traced_counts_repeat_for_a_seed(self):
        first = self.assert_reports(1, self.per_layer)["metrics"]
        second = tiny_all(1)[1]["metrics"]
        counts = [k for k, v in first.items() if v["unit"] in ("count", "bytes")]
        self.assertTrue(counts)
        for key in counts:
            self.assertEqual(first[key], second[key], key)


class ReferenceSpeed(unittest.TestCase):
    def test_job_times_scale_with_the_kernel(self):
        import run

        job = jobs.GeneratorJob("single", "harmonic", [Fraction(262)], [Fraction(393)], max_den=8)
        kernel, ref_ns = run.REFERENCE["generators"]
        outcome = run.Outcome(1, (kernel, ref_ns))
        real = run.reference_ns, run.process_time_ns
        # a host at half the reference speed: the kernel takes twice as long,
        # and the job reads 1 ms of CPU time
        run.reference_ns = lambda k: 2 * ref_ns
        run.process_time_ns = iter(range(0, 10**9, 10**6)).__next__
        try:
            run.run_round([job], outcome, random.Random(0))
        finally:
            run.reference_ns, run.process_time_ns = real
        self.assertEqual(outcome.failed, 0, outcome.problems)
        self.assertEqual(outcome.rounds_ns, [500_000])
        self.assertGreater(outcome.wall_rounds_ns[0], 0)


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = run_bench("--workload", "generators", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
