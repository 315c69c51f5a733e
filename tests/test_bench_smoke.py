"""Each benchmark workload, shrunk, run in-process through the benchmark's own
calls and output checks: an oracle or solver change that the benchmark would
reject as incorrect output fails here first."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS, calls, checks, workloads  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_the_benchmark_checks(workload, tmp_path):
    ops = workloads.build(workload, 1, tiny=True)
    assert ops
    stats = checks.Stats()
    fidelities = []
    for i, op in enumerate(ops):
        out = calls.run_op(op, calls.UNTRACED, tmp_path / f"op-{i}.json")
        fidelities.append(checks.check_op(op, out, stats))
    checks.check_schedules(ops, fidelities)
