"""``tools/bench_ab.py`` on canned result lines; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
UNITS = {spec["name"]: spec["unit"] for spec in END_TO_END}


def canned_output(throughput, rss=26.0, failed=0, digest="ab12"):
    """The tail of a ``perfbench/run.py --trace 0`` output."""
    values = {"setup_s": 0.05, "throughput_jobs_s": throughput, "latency_p50_ms": 1000 / throughput,
              "latency_p90_ms": 4000 / throughput, "peak_rss_mb": rss}
    result = {"correct": failed == 0, "attempted": 171, "failed": failed,
              "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}}
    return "\n".join([
        "workload generators: seed 5, 171 jobs per round, 40 rounds",
        f"digest generators seed=5: sha256:{digest}",
        f"error_rate = {failed / 171:.6g} ratio (failed {failed} of 171 jobs)",
        json.dumps(result),
    ]) + "\n"


def test_a_run_is_read_from_its_last_line_and_digest_line():
    run = bench_ab.parse_run(canned_output(1000.0, failed=2, digest="ff00"))
    assert run == bench_ab.Run(False, 2, {"setup_s": 0.05, "throughput_jobs_s": 1000.0, "latency_p50_ms": 1.0,
                                          "latency_p90_ms": 4.0, "peak_rss_mb": 26.0}, "sha256:ff00")


def test_summary_gives_medians_quartiles_change_pairs_won_and_bound():
    parent = [bench_ab.parse_run(canned_output(x)) for x in (1000.0, 980.0, 1020.0, 990.0, 1010.0)]
    change = [bench_ab.parse_run(canned_output(x, rss=30.0)) for x in (1100.0, 1120.0, 1090.0, 1110.0, 950.0)]
    lines = {line.split(":")[0]: line for line in bench_ab.summary(parent, change, END_TO_END)}
    assert lines["throughput_jobs_s"] == (
        "throughput_jobs_s: parent 1000 [990, 1010]  change 1100 [1090, 1110]  +10.0%  won 4/5  "
        "bound 25% (higher is better)  not shown (fewer than 10 pairs)"
    )
    # latency falls with throughput, and lower is better
    assert "won 4/5" in lines["latency_p50_ms"] and "-9.1%" in lines["latency_p50_ms"]
    # a 15% rise against a 10% bound; equal values win for neither side
    assert lines["peak_rss_mb"].endswith(
        "+15.4%  won 0/5  bound 10% (lower is better)  beyond bound  not shown (fewer than 10 pairs)"
    )
    assert lines["setup_s"].startswith("setup_s: parent 0.05 [0.05, 0.05]") and "won 0/5" in lines["setup_s"]
    assert lines["digests"] == "digests: equal"


def verdicts(parent_throughputs, change_throughputs):
    """The claim verdict closing each metric line of a canned comparison."""
    parent = [bench_ab.parse_run(canned_output(x)) for x in parent_throughputs]
    change = [bench_ab.parse_run(canned_output(x)) for x in change_throughputs]
    return {line.split(":")[0]: line.rsplit("  ", 1)[1] for line in bench_ab.summary(parent, change, END_TO_END)[:-1]}


def test_a_claim_is_shown_by_nine_wins_in_ten_and_medians_apart_by_more_than_the_parents_spread():
    parent = [1000.0, 990.0, 1010.0, 995.0, 1005.0, 1000.0, 985.0, 1015.0, 1000.0, 1040.0]
    # 9 of 10 pairs won; the medians 1000 and 1050 lie further apart than
    # the parent's quartiles 996.25 and 1008.75
    change = [1050.0, 1040.0, 1060.0, 1045.0, 1055.0, 1050.0, 1035.0, 1065.0, 1050.0, 1030.0]
    shown = verdicts(parent, change)
    assert shown["throughput_jobs_s"] == shown["latency_p50_ms"] == shown["latency_p90_ms"] == "claim shown"
    # equal values win no pair
    assert shown["setup_s"] == shown["peak_rss_mb"] == "not shown"
    # a loss for the change is never a claim
    assert verdicts(change, parent)["throughput_jobs_s"] == "not shown"


def test_eight_wins_in_ten_or_medians_within_the_parents_spread_show_no_claim():
    parent = [1000.0, 990.0, 1010.0, 995.0, 1005.0, 1000.0, 985.0, 1015.0, 1000.0, 1040.0]
    eight = [1050.0, 1040.0, 1060.0, 1045.0, 1055.0, 1050.0, 1035.0, 1065.0, 990.0, 1030.0]
    assert verdicts(parent, eight)["throughput_jobs_s"] == "not shown"
    # every pair won, by less than the parent's quartile spread of 12.5
    close = [x + 5.0 for x in parent]
    assert verdicts(parent, close)["throughput_jobs_s"] == "not shown"
    assert verdicts(parent, [x + 20.0 for x in parent])["throughput_jobs_s"] == "claim shown"


def test_fewer_than_ten_pairs_show_no_claim():
    # 3 of 3 pairs won, the medians far apart: still no claim
    shown = verdicts([1000.0, 990.0, 1010.0], [1500.0, 1490.0, 1510.0])
    assert shown["throughput_jobs_s"] == shown["latency_p50_ms"] == "not shown (fewer than 10 pairs)"
    assert set(shown.values()) == {"not shown (fewer than 10 pairs)"}
    # nine pairs fall short too; the tenth shows the claim
    parent = [1000.0, 990.0, 1010.0, 995.0, 1005.0, 1000.0, 985.0, 1015.0, 1000.0, 1040.0]
    change = [x + 100.0 for x in parent]
    assert verdicts(parent[:9], change[:9])["throughput_jobs_s"] == "not shown (fewer than 10 pairs)"
    assert verdicts(parent, change)["throughput_jobs_s"] == "claim shown"


def test_unequal_digests_and_failed_runs_are_reported():
    parent = [bench_ab.parse_run(canned_output(1000.0))]
    change = [bench_ab.parse_run(canned_output(1100.0, failed=1, digest="cd34"))]
    assert bench_ab.summary(parent, change, END_TO_END)[-1] == "digests: differ sha256:ab12 sha256:cd34"
    assert bench_ab.faults("parent", parent) == []
    assert bench_ab.faults("change", change) == ["change run 0: correct=False, failed=1"]


def test_pairs_alternate_their_order_and_a_failed_job_fails_the_comparison(monkeypatch, capsys):
    calls = []

    def canned_run(tree, args, env):
        calls.append((tree.name, env.get("MALLOC_MMAP_THRESHOLD_")))
        failed = int(tree.name == "change" and len(calls) == 6)
        return bench_ab.parse_run(canned_output(1100.0 if tree.name == "change" else 1000.0, failed=failed))

    monkeypatch.setattr(bench_ab, "_run", canned_run)
    argv = ["parent", "change", "--workload", "generators", "--seed", "5", "--pairs", "3", "--pin-mmap"]
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    assert bench_ab.main(argv) == 1
    assert calls == [(name, "131072") for name in ("parent", "change", "change", "parent", "parent", "change")]
    out, err = capsys.readouterr()
    assert "pair 1: parent 1000 jobs/s, change 1100 jobs/s" in out
    assert "throughput_jobs_s: parent 1000" in out
    assert err == "error: change run 2: correct=False, failed=1\n"
    calls.clear()
    assert bench_ab.main(argv[:-1]) == 1  # the sixth run fails again
    assert {threshold for _, threshold in calls} == {None}
