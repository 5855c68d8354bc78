"""Smoke test of the benchmark: every workload at tiny size, one pass.

    python -m pytest perfbench

Checks the schema of the result line against ``BENCHMARK.json`` and that
no operation failed.  Gates on no timing.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, "\n".join(l for l in lines if l.startswith("FAILED"))
    assert result["correct"] is True
    assert "error_rate 0 (0/" in done.stdout

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    if trace:
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert layer_sum == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "wide_dense", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
