"""Alternating parent/change benchmark pairs, summarized into one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_10.json \\
        --change "what the change does" --claim large-m-scan:run_s \\
        --pairs large-m-scan=10 --pairs verified-solve=5 --pairs small-m-mix=5 \\
        --first-seed 1001

The parent revision is unpacked with `git archive <rev> | tar -x` into a
temporary directory.  For every pair, perfbench/run.py runs once from the
parent's tree and once from this checkout, each as its own subprocess on the
same seed and for BENCHMARK.json's run_seconds; the side that runs first
alternates from pair to pair.  Then one traced run per side and workload, on
the first seed, keeps every metric it reports.  The output holds each run's
end-to-end metrics with the BLAS/OpenMP thread settings and the usable CPU
count its worker reported, and per workload the medians, the inclusive
quartiles and the count of pairs the change wins, each side's share of
failed ops and count of runs whose checks failed, and a verdict on each
metric (see verdicts).  "blas_threads" lists the distinct settings each side
ran with and flags the file when the two sides differ.  The benchmark itself
is only run, never imported.  SIGTERM stops the runner like SystemExit: the
running benchmark is killed and the parent's temporary tree removed.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("perfbench") / "run.py"
END_TO_END = ("setup_s", "run_s", "op_median_s", "peak_rss_mib")
# what each run's worker reports of its threads and CPUs
ENV_KEYS = ("threads", "cpus_usable")
SIDES = ("parent", "change")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = BENCHMARK["run_seconds"]
# how far, relative to the parent's median, each metric may worsen
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}


def _exit_on_sigterm(signum, frame):
    # an exception, unlike the default action, runs the cleanup of every open
    # `with` block: subprocess.run kills its child, TemporaryDirectory removes itself
    raise SystemExit(128 + signum)


def unpack(rev: str, dest: Path) -> None:
    """Write the tree of rev into dest, as `git archive rev | tar -x` does."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_bench(tree: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One perfbench run from tree; returns (result line, environment line)."""
    cmd = [sys.executable, str(tree / RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode} in {tree}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def run_record(result: dict) -> dict:
    """The end-to-end metrics of one untraced run, with its op counts."""
    metrics = result["metrics"]
    record = {name: metrics[name]["value"] for name in END_TO_END if name in metrics}
    record.update(failed=result["failed"], attempted=result["attempted"], checks_pass=result["correct"])
    return record


def thread_settings(workloads: dict) -> dict:
    """The distinct thread settings and usable CPU counts of each side's runs.

    workloads maps each workload to its {"runs": [...]} record.  The two
    sides are timed fairly only if they ran with the same settings, so
    "sides_differ" flags the file otherwise.
    """
    seen = {side: [] for side in SIDES}
    for record in workloads.values():
        for run in record["runs"]:
            for side in SIDES:
                setting = {key: run[side].get(key) for key in ENV_KEYS}
                if setting not in seen[side]:
                    seen[side].append(setting)
    return {**seen, "sides_differ": seen["parent"] != seen["change"]}


def _quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _paired_metrics(runs: list):
    """(name, pairs, parent values, change values, parent median, change median)
    of each end-to-end metric that some pair reports on both sides."""
    for name in END_TO_END:
        pairs = [(r["parent"][name], r["change"][name]) for r in runs
                 if name in r["parent"] and name in r["change"]]
        if pairs:
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            yield name, pairs, parent, change, statistics.median(parent), statistics.median(change)


def summarize_pairs(runs: list) -> dict:
    """Median, quartiles, relative change and wins of each end-to-end metric.

    runs holds one {"parent": {...}, "change": {...}} entry per pair; every
    metric here is better when lower, so the change wins a pair when its
    value is strictly below the parent's.
    """
    summary = {}
    for name, pairs, parent, change, mid_p, mid_c in _paired_metrics(runs):
        summary[name] = {
            "parent": round(mid_p, 5),
            "change": round(mid_c, 5),
            "parent_quartiles": [round(q, 5) for q in _quartiles(parent)],
            "change_quartiles": [round(q, 5) for q in _quartiles(change)],
            "change_pct": round(100.0 * (mid_c - mid_p) / mid_p, 1) if mid_p else None,
            "change_wins": f"{sum(c < p for p, c in pairs)}/{len(pairs)}",
        }
    return summary


def _failed_share(runs: list, side: str) -> float:
    attempted = sum(r[side]["attempted"] for r in runs)
    return sum(r[side]["failed"] for r in runs) / attempted if attempted else 0.0


def failures(runs: list) -> dict:
    """Each side's share of failed ops over all its runs, and its count of
    runs whose checks failed."""
    return {side: {"failed_share": round(_failed_share(runs, side), 5),
                   "checks_failed": sum(not r[side]["checks_pass"] for r in runs)} for side in SIDES}


def verdicts(runs: list, claimed: str | None = None) -> dict:
    """Each end-to-end metric's verdict on one workload, from the raw pairs.

    Every metric here is better when lower.  The claimed metric, if it is
    one of them, is "met" when the change wins at least 9 in 10 pairs, its
    median beats the parent's by more than the parent's interquartile
    range, its share of failed ops is no larger than the parent's and every
    change run passed its checks; it is "not met" otherwise.  Any other
    metric is "worse" when the change's median exceeds the parent's by more
    than BOUNDS' share of it; else "unresolved" when the parent's
    interquartile range exceeds that share, unless every change run beats
    every parent run; else "no worse".
    """
    ops_hold = (_failed_share(runs, "change") <= _failed_share(runs, "parent")
                and all(r["change"]["checks_pass"] for r in runs))
    verdict = {}
    for name, pairs, parent, change, mid_p, mid_c in _paired_metrics(runs):
        q1, q3 = _quartiles(parent)
        if name == claimed:
            wins = sum(c < p for p, c in pairs)
            met = ops_hold and wins >= 0.9 * len(pairs) and mid_p - mid_c > q3 - q1
            verdict[name] = "met" if met else "not met"
        elif mid_c - mid_p > BOUNDS[name] * mid_p:
            verdict[name] = "worse"
        elif q3 - q1 > BOUNDS[name] * mid_p and max(change) >= min(parent):
            verdict[name] = "unresolved"
        else:
            verdict[name] = "no worse"
    return verdict


def parse_pairs(items: list) -> dict:
    counts = {}
    for item in items:
        name, sep, count = item.partition("=")
        if not sep or not count.isdigit() or int(count) < 1:
            raise SystemExit(f"error: --pairs takes WORKLOAD=COUNT, got {item!r}")
        counts[name] = int(count)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change perfbench pairs")
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--change", default="", help="one line naming the change")
    parser.add_argument("--claim", default=None, help="claimed metric as WORKLOAD:METRIC")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT")
    parser.add_argument("--first-seed", type=int, default=1001, help="seed of the first pair and the traced runs")
    args = parser.parse_args(argv)
    counts = parse_pairs(args.pairs)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    out = {"change": args.change,
           "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {RUN_SECONDS} --trace 0; "
                      f"traced: --trace 1 --seed {args.first_seed}",
           "parent_rev": subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True,
                                        text=True, check=True).stdout.strip(),
           "host": {},
           "pairs": "parent and change alternate which runs first; each run names the side that ran first"}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        out["claimed_metric"] = {"workload": workload, "metric": metric}
    out["workloads"] = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        unpack(args.parent, trees["parent"])
        for workload, count in counts.items():
            seeds = list(range(args.first_seed, args.first_seed + count))
            runs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    result, env = run_bench(trees[side], workload, seed, 0)
                    run[side] = run_record(result)
                    run[side].update({key: env.get(key) for key in ENV_KEYS})
                    out["host"] = out["host"] or {k: env.get(k) for k in
                                                  ("python", "numpy", "scipy", "mpmath", "blas", "nproc", *ENV_KEYS)}
                    print(f"{workload} seed {seed} {side}: run_s {run[side].get('run_s', float('nan')):.4f}",
                          file=sys.stderr, flush=True)
                runs.append(run)
            claimed = out.get("claimed_metric", {})
            out["workloads"][workload] = {
                "seeds": seeds, "median": summarize_pairs(runs), "failures": failures(runs),
                "verdict": verdicts(runs, claimed["metric"] if claimed.get("workload") == workload else None),
                "runs": runs}
        out["blas_threads"] = thread_settings(out["workloads"])
        if out["blas_threads"]["sides_differ"]:
            print("warning: parent and change ran with different thread settings or CPU counts",
                  file=sys.stderr, flush=True)
        out["traced"] = {}
        for workload in counts:
            traced = {"seed": args.first_seed}
            for side in SIDES:
                result, _ = run_bench(trees[side], workload, args.first_seed, 1)
                traced[side] = {name: metric["value"] for name, metric in result["metrics"].items()}
            out["traced"][workload] = traced
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
