"""Tests of the benchmark itself (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest e2ebench/test_e2ebench.py -q

They run every workload's traced run twice with one seed and require the
deterministic per-layer counts to repeat exactly, check the result line's
shape, and check that the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import DETERMINISTIC_COUNTS, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, trace: int, seconds: float = 2):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counts(workload):
    first, second = (_result(_run(workload, 7, trace=1)) for _ in range(2))
    assert set(first["metrics"]) == set(PER_LAYER)
    for name in DETERMINISTIC_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run("decentralized_rr8", 3, trace=0, seconds=1))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "sweep_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
