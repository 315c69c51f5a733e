"""One measured pass of a workload, in a fresh process.

Run by perfbench/run.py, once per pass; prints one JSON object on its last
line of output.  Set-up (importing gbstates, building the op list, one
warm-up op) is timed first, then every op of the list is run once, one at a
time, each followed by its untimed check.  With --trace 1 the same list is
run again with spans recorded, each op's point is replayed through the lower
layers, and the spans are written to --out-dir.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_pass(ops, tr, out_path, stats, first_id=0):
    """(op seconds, {op index: failure}, check errors) of one closed-loop pass.

    Op i is traced as op first_id + i; its replay must use the same id.
    """
    from perfbench import calls, checks
    from perfbench.reference import CheckError

    times, failures, errors, fids = [], {}, [], []
    for i, op in enumerate(ops):
        tr.op = first_id + i
        t0 = time.perf_counter()
        try:
            out = calls.run_op(op, tr, out_path)
        except Exception as exc:  # a program fault fails the op and the pass goes on
            times.append(time.perf_counter() - t0)
            failures[i] = f"{type(exc).__name__}: {exc}"
            fids.append(None)
            continue
        times.append(time.perf_counter() - t0)
        try:
            fids.append(checks.check_op(op, out, stats))
        except CheckError as exc:
            errors.append(f"{op.label()}: {exc}")
            fids.append(None)
    try:
        checks.check_schedules(ops, fids)
    except CheckError as exc:
        errors.append(str(exc))
    return times, failures, errors


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    from perfbench import THREAD_VARS

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def traced_run(ops, out_path, spans_path):
    """Traced pass, replay and probes; returns (traced op seconds, layer metrics, errors)."""
    from perfbench import calls, checks, tracing, workloads

    tracer = tracing.Tracer()
    stats = checks.Stats()
    tracer.phase = "pass"
    times, _, errors = run_pass(ops, tracer, out_path, stats)
    defects = []
    tracer.phase = "replay"
    for i, op in enumerate(ops):
        tracer.op = i
        calls.replay(op, tracer, checks.is_generic(op), defects)
    tracer.phase = "probe"
    for j, op in enumerate(workloads.probes_for(ops), start=len(ops)):
        errors += run_pass([op], tracer, out_path, stats, first_id=j)[2]
        tracer.op = j
        calls.replay(op, tracer, checks.is_generic(op), defects)
    tracer.write(spans_path)
    return times, tracing.layer_metrics(tracer.spans, defects, stats.residual_digits()), errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink every m (smoke tests)")
    args = parser.parse_args(argv)
    for p in (ROOT / "src", ROOT):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / f"gbs-{os.getpid()}.json"

    t0 = time.perf_counter()
    from perfbench import calls, workloads  # imports gbstates, and numpy with it

    ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    calls.run_op(workloads.WARMUP[args.workload], calls.UNTRACED, out_path)
    setup_s = time.perf_counter() - t0

    from perfbench import checks

    stats = checks.Stats()
    times, failures, errors = run_pass(ops, calls.UNTRACED, out_path, stats)
    result = {
        "setup_s": setup_s,
        "op_s": times,
        "failures": {ops[i].label(): msg for i, msg in failures.items()},
        "failed": len(failures),
        "errors": errors,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if args.trace:
        spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_index}.jsonl"
        traced, layers, trace_errors = traced_run(ops, out_path, spans_path)
        layers["trace.overhead_s"] = sum(traced) - sum(times)
        result["layers"] = layers
        result["errors"] += trace_errors
    out_path.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
