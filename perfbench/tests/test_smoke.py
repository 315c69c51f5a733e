"""A tiny traced pass of each workload, and the runner outside a checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from perfbench import run, worker  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_pass(workload, tmp_path, capsys):
    assert worker.main(["--workload", workload, "--seed", "7", "--trace", "1", "--tiny",
                        "--out-dir", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["errors"] == []
    assert result["failed"] == 0
    assert len(result["op_s"]) > 0 and result["setup_s"] > 0
    assert set(result["layers"]) == set(run.PER_LAYER)
    assert list(tmp_path.glob("spans-*.jsonl"))
    summary = run.summarize([result], trace=0)
    assert set(summary) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in summary.values())


def test_runner_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-m-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
