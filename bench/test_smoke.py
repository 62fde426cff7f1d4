"""Toy-size smoke test of the benchmark, so that it cannot rot.

Every workload runs through the same code as a real run, at tiny sizes,
untraced and traced, and must report every metric BENCHMARK.json names with
its unit and a measured (non-zero) value.  Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS to one thread before numpy loads)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    run._import_program()
    import hooks
    import workloads
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == hooks.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    result = run.execute(workload, seed=3, seconds=0.5, trace=bool(trace), toy=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-infer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
