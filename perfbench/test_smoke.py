"""Tiny-size smoke test of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs twice untraced with the same seed and once traced, at tiny
item sizes for one second.  The test checks that every printed metric is
declared in BENCHMARK.json with the same unit, that outputs pass their
checks, that same-seed runs print equal digests, and that each layer does
work on the workloads its target mapping names.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout + proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    digests = [line for line in lines if line.startswith("digest ")]
    assert len(digests) == 1
    return result, digests[0]


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digest(workload):
    first, digest_a = run_bench(workload, trace=0)
    second, digest_b = run_bench(workload, trace=0)
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert units(first) == declared
    assert all(m["value"] > 0 for m in first["metrics"].values())
    assert digest_a == digest_b


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_exercised(workload):
    result, _ = run_bench(workload, trace=1)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units(result) == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    idle = [
        layer
        for layer, evidence, workloads, _ in tracing.LAYER_TARGETS
        if workload in workloads and not values[evidence] > 0
    ]
    assert not idle, f"no work recorded on {workload} for {idle}"


def test_every_layer_metric_has_a_target():
    layers = [layer for layer, _, _, _ in tracing.LAYER_TARGETS]
    for name, _ in tracing.LAYER_METRICS:
        if name == "trace.overhead_frac":
            continue
        assert any(name == layer or name.startswith(layer + ".") for layer in layers), name
