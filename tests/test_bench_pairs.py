import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _side(run_s, setup_s=0.2):
    return {"setup_s": setup_s, "run_s": run_s, "op_median_s": run_s / 10, "peak_rss_mib": 60.0,
            "failed": 0, "attempted": 100, "checks_pass": True}


def test_summarize_pairs_on_a_hand_made_record():
    runs = [
        {"seed": 1, "first": "parent", "parent": _side(1.0), "change": _side(0.5)},
        {"seed": 2, "first": "change", "change": _side(0.7), "parent": _side(1.2)},
        {"seed": 3, "first": "parent", "parent": _side(0.9), "change": _side(1.1, setup_s=0.1)},
        {"seed": 4, "first": "change", "change": _side(0.6), "parent": _side(1.4)},
    ]
    summary = bench_pairs.summarize_pairs(runs)
    run_s = summary["run_s"]
    assert run_s["parent"] == 1.1 and run_s["change"] == 0.65
    # inclusive quartiles of (0.9, 1.0, 1.2, 1.4) and (0.5, 0.6, 0.7, 1.1)
    assert run_s["parent_quartiles"] == [0.975, 1.25]
    assert run_s["change_quartiles"] == [0.575, 0.8]
    assert run_s["change_pct"] == pytest.approx(-40.9)
    assert run_s["change_wins"] == "3/4"
    # a tie is no win; setup_s is lower only on the third pair
    assert summary["setup_s"]["change_wins"] == "1/4"
    assert summary["peak_rss_mib"]["change_wins"] == "0/4"
    assert summary["peak_rss_mib"]["change_pct"] == 0.0


def _pairs(parent_run_s, change_run_s, **other):
    """Hand-made pairs: run_s as given, every other metric equal on both sides
    unless other maps it to (parent values, change values)."""
    runs = []
    for i, (p, c) in enumerate(zip(parent_run_s, change_run_s)):
        run = {"seed": i, "first": "parent" if i % 2 == 0 else "change", "parent": _side(p), "change": _side(c)}
        for name, (ps, cs) in other.items():
            run["parent"][name], run["change"][name] = ps[i], cs[i]
        runs.append(run)
    return runs


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_a_claim_is_met_by_nine_wins_in_ten_and_a_gap_past_the_spread():
    faster = [0.80] * 9 + [1.05]  # the change loses one pair
    verdict = bench_pairs.verdicts(_pairs(PARENT, faster), "run_s")
    assert verdict["run_s"] == "met"
    # the other metrics are equal on both sides
    assert {name: verdict[name] for name in ("setup_s", "peak_rss_mib")} == {
        "setup_s": "no worse", "peak_rss_mib": "no worse"}


def test_failures_give_each_sides_failed_share_and_failed_checks():
    runs = _pairs(PARENT[:4], PARENT[:4])
    runs[1]["change"].update(failed=6, checks_pass=False)
    runs[3]["parent"].update(failed=2)
    assert bench_pairs.failures(runs) == {"parent": {"failed_share": 0.005, "checks_failed": 0},
                                          "change": {"failed_share": 0.015, "checks_failed": 1}}


@pytest.mark.parametrize("failed, checks_pass", [(1, True), (0, False)], ids=["more-failed-ops", "failed-checks"])
def test_a_claim_is_not_met_with_more_failed_ops_or_failed_checks(failed, checks_pass):
    # nine wins in ten and a gap past the spread, as in the met case above
    runs = _pairs(PARENT, [0.80] * 9 + [1.05])
    runs[4]["change"].update(failed=failed, checks_pass=checks_pass)
    assert bench_pairs.verdicts(runs, "run_s")["run_s"] == "not met"
    # the parent failing as many ops keeps the claim met
    runs[5]["parent"]["failed"] = failed
    assert bench_pairs.verdicts(runs, "run_s")["run_s"] == ("met" if checks_pass else "not met")


@pytest.mark.parametrize(
    "change",
    [[0.80] * 8 + [1.05, 1.05], [p - 0.004 for p in PARENT]],
    ids=["eight-wins", "gap-inside-the-spread"],
)
def test_a_claim_is_not_met_by_fewer_wins_or_a_gap_inside_the_spread(change):
    # the parent's quartiles are 0.99 and 1.01: a 0.004 gap sits inside them
    assert bench_pairs.verdicts(_pairs(PARENT, change), "run_s")["run_s"] == "not met"


def test_a_metric_past_its_bound_is_worse():
    # peak_rss_mib may worsen by 5 %, run_s by 25 %
    rss = ([100.0] * 10, [106.0] * 10)
    verdict = bench_pairs.verdicts(_pairs(PARENT, [1.2] * 10, peak_rss_mib=rss))
    assert verdict["peak_rss_mib"] == "worse"
    assert verdict["run_s"] == "no worse"
    assert bench_pairs.verdicts(_pairs(PARENT, [1.3] * 10))["run_s"] == "worse"


def test_a_parent_spread_past_the_bound_leaves_a_metric_unresolved():
    # the parent's peak_rss_mib quartiles, 95 and 105, are 10 % apart
    parent_rss = [90.0, 95.0, 95.0, 95.0, 100.0, 100.0, 105.0, 105.0, 105.0, 110.0]
    unresolved = bench_pairs.verdicts(_pairs(PARENT, PARENT, peak_rss_mib=(parent_rss, [101.0] * 10)))
    assert unresolved["peak_rss_mib"] == "unresolved"
    # unless every change run reads better than every parent run
    better = bench_pairs.verdicts(_pairs(PARENT, PARENT, peak_rss_mib=(parent_rss, [89.0] * 10)))
    assert better["peak_rss_mib"] == "no worse"
    # without a claim, run_s takes the bound rule too
    assert bench_pairs.verdicts(_pairs(PARENT, PARENT), None)["run_s"] == "no worse"


def test_run_record_takes_the_end_to_end_values():
    result = {"correct": True, "attempted": 46, "failed": 0,
              "metrics": {"setup_s": {"value": 0.16, "unit": "s"}, "run_s": {"value": 0.42, "unit": "s"},
                          "op_median_s": {"value": 0.0017, "unit": "s"},
                          "peak_rss_mib": {"value": 104.7, "unit": "MiB"}}}
    assert bench_pairs.run_record(result) == {
        "setup_s": 0.16, "run_s": 0.42, "op_median_s": 0.0017, "peak_rss_mib": 104.7,
        "failed": 0, "attempted": 46, "checks_pass": True}


def test_parse_pairs_rejects_a_missing_count():
    assert bench_pairs.parse_pairs(["large-m-scan=10", "small-m-mix=5"]) == {
        "large-m-scan": 10, "small-m-mix": 5}
    with pytest.raises(SystemExit, match="WORKLOAD=COUNT"):
        bench_pairs.parse_pairs(["large-m-scan"])


def _with_env(record, threads="1", cpus=2):
    return {**record, "threads": {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            "cpus_usable": cpus}


def test_thread_settings_lists_each_sides_settings():
    runs = [{"seed": s, "first": "parent", "parent": _with_env(_side(1.0)), "change": _with_env(_side(0.9))}
            for s in (1, 2)]
    settings = bench_pairs.thread_settings({"large-m-scan": {"runs": runs}, "small-m-mix": {"runs": runs}})
    one = {"threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, "cpus_usable": 2}
    assert settings == {"parent": [one], "change": [one], "sides_differ": False}


@pytest.mark.parametrize("change", [{"threads": "4"}, {"cpus": 1}])
def test_thread_settings_flags_sides_that_differ(change):
    runs = [
        {"seed": 1, "first": "parent", "parent": _with_env(_side(1.0)), "change": _with_env(_side(0.9))},
        {"seed": 2, "first": "change", "parent": _with_env(_side(1.0)), "change": _with_env(_side(0.9), **change)},
    ]
    settings = bench_pairs.thread_settings({"large-m-scan": {"runs": runs}})
    assert settings["sides_differ"]
    assert len(settings["parent"]) == 1 and len(settings["change"]) == 2


# main with the parent's unpacking reduced to a marker file, a benchmark run
# that blocks, and a fixed parent revision (no git call)
_BLOCKED_MAIN = """
import importlib.util, subprocess, sys, time
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
bench_pairs.unpack = lambda rev, dest: (dest / "unpacked").write_text(rev)
bench_pairs.run_bench = lambda *args: time.sleep(120)
bench_pairs.subprocess.run = lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, stdout="0" * 40)
sys.exit(bench_pairs.main(["--parent", "HEAD", "--out", sys.argv[2], "--pairs", "small-m-mix=1"]))
"""


def test_sigterm_removes_the_parent_tree(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen([sys.executable, "-c", _BLOCKED_MAIN, str(_PATH), str(tmp_path / "out.json")],
                            env=env, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("bench-parent-*/unpacked")):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "the parent tree never appeared"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert not list(tmp_path.glob("bench-parent-*"))
    assert not (tmp_path / "out.json").exists()
