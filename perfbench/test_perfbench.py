"""Smoke test of the benchmark harness on tiny inputs.

It checks the result line's schema and metric names against
BENCHMARK.json and the correctness gate, never a timing, so it cannot
turn flaky on a loaded machine.  Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert set(harness.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_tiny_run_schema(tmp_path, capsys, workload, trace):
    result = harness.run(workload, seed=3, seconds=0, trace=trace,
                         benchmark_json=ROOT / "BENCHMARK.json", work_root=tmp_path,
                         tiny=True)
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for s in specs:
        metric = result["metrics"][s["name"]]
        assert metric["unit"] == s["unit"] and isinstance(metric["value"], float)
    if trace:
        assert (tmp_path / f"{workload}-seed3-trace1" / "spans.jsonl").stat().st_size > 0


def test_every_per_layer_metric_is_recorded(tmp_path, capsys):
    # a per-layer name that no workload produces would read 0 everywhere
    seen = set()
    for workload in harness.WORKLOADS:
        result = harness.run(workload, seed=3, seconds=0, trace=True,
                             benchmark_json=ROOT / "BENCHMARK.json", work_root=tmp_path,
                             tiny=True)
        seen |= {name for name, m in result["metrics"].items() if m["value"] != 0}
    assert seen == {s["name"] for s in SPEC["per_layer"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-d8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
