"""The benchmark command runs and passes its own output checks on every
workload that ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_bench_run_is_correct(workload):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_traced_bench_run_reports_every_layer_metric():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-q4-majority",
                           "--seed", "1", "--seconds", "0.1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert {m["name"]: units.get(m["name"]) for m in SPEC["per_layer"]} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
