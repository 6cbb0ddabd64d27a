"""Smoke test of the perfbench command at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs with a tiny ``--seconds`` (the AMG build keeps its
fixed budget, so this takes a couple of minutes).  The test checks that
every metric name and unit in ``BENCHMARK.json`` is printed, that
outputs pass the correctness gates, and that another seed changes the
inputs but not the metric set.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.05",
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def inputs_digest(stdout: str) -> str:
    return re.search(r"inputs digest\s+(\w+)", stdout).group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_units_and_seeds(workload):
    first, first_out = bench(workload, seed=1, trace=0)
    second, second_out = bench(workload, seed=2, trace=0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert units(result) == expected
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert inputs_digest(first_out) != inputs_digest(second_out)
    for name in ("setup_s", "peak_rss_mb"):
        assert re.search(rf"^\s+{name}\s+\S+\s+\S+\s+n=\d+$", first_out, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, stdout = bench(workload, seed=1, trace=1)
    assert result["correct"] is True
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert "unattributed" in stdout and "tracing overhead" in stdout
    assert result["metrics"]["setup.import_s"]["value"] > 0
