"""gbstates benchmark: one workload, measured for a fixed time, one JSON result.

    python3 perfbench/run.py --workload large-m-scan --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds src/gbstates.  Each pass over
the workload's op list runs in a fresh worker process (perfbench/worker.py),
one after the other, until --seconds have gone by; every pass attempts the
same ops.  The last line of output is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics (medians over the passes) with --trace 1.  The full record, with the environment, goes to
perfbench/out/.

BLAS, OpenMP and MKL threads are pinned to 1 for the workers, before they
import numpy; --blas-threads default leaves the caller's setting alone and
is meant for the README's reference figure only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))
from perfbench import THREAD_VARS, WORKLOADS  # noqa: E402  (the package init imports no numpy)

TIME_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "op_median_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "displacement.rotation_s": "s",
    "displacement.unitarity_defect_max": "1",
    "displacement.disentangle_s": "s",
    "solver.frame_s": "s",
    "solver.cores_s": "s",
    "solver.solve_s": "s",
    "solver.assembly_s": "s",
    "solver.forms_s": "s",
    "solver.cores_failed": "count",
    "solver.residual_digits_min": "digits",
    "oracle.dense_spectrum_s": "s",
    "oracle.compare_self_s": "s",
    "binomial.amplitudes_s": "s",
    "binomial.displacement_form_s": "s",
    "analysis.scan_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def worker_env(blas_threads: str) -> dict:
    env = dict(os.environ)
    if blas_threads != "default":
        env.update({v: blas_threads for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(args, index: int, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--pass-index", str(index),
           "--out-dir", str(OUT)]
    # subprocess.run kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for pass {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(passes: list, trace: int) -> dict:
    """Each metric with its unit, aggregated over the run's passes."""
    if trace:
        rows = [p["layers"] for p in passes]
        return {name: {"value": statistics.median(values), "unit": unit}
                for name, unit in PER_LAYER.items()
                # a layer whose entry point is gone is reported absent
                if (values := [r[name] for r in rows if name in r])}
    # each op's mean over the passes; on a shared host whose speed swings for
    # seconds at a time, the mean of every sample was steadier than medians
    # or minima (see README)
    op_s = [statistics.fmean(times) for times in zip(*(p["op_s"] for p in passes))]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "run_s": sum(op_s),
        "op_median_s": statistics.median(op_s),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gbstates benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1", help="thread count for BLAS/OpenMP/MKL, or 'default'")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gbstates" / "__init__.py").is_file():
        print(f"error: no gbstates sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    env = worker_env(args.blas_threads)

    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < args.seconds:
        remaining = TIME_LIMIT_S - (time.perf_counter() - start)
        try:
            passes.append(run_worker(args, len(passes), env, max(remaining, 1.0)))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": summarize(passes, args.trace)}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "blas_threads": args.blas_threads, "env": passes[0]["env"], "result": result,
              "errors": errors, "failures": passes[0]["failures"], "passes": passes}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(passes[0]["env"]))
    for label, msg in passes[0]["failures"].items():
        print(f"failed op: {label}: {msg}")
    for e in errors[:20]:
        print(f"check failed: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
