"""Smoke test of the benchmark: every workload at toy size, both modes.

    python3 -m pytest -q perfbench/test_smoke.py

Takes about two minutes. Not part of the library's test suite (pyproject's
``testpaths`` is ``tests``).
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracer import EXACT_COUNTS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_with_its_unit(workload, trace):
    proc, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    if not trace:
        # printed for people, not in the result line
        assert "error_rate" in proc.stdout
        assert ("gating_gain" in proc.stdout) == (workload == "ablate_loco")


@pytest.mark.parametrize("workload", ["ablate_loco", "baselines_loco"])
def test_exact_counts_repeat(workload):
    first = run(workload, 1)[1]["metrics"]
    second = run(workload, 1)[1]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    busy = ("evaluation.steps" if workload == "ablate_loco"
            else "baselines.fit_logreg.grad_evals_per_fit")
    assert first[busy]["value"] > 0


def test_fails_without_library_source(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "traces",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ablate_loco",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
