"""Smoke test of the benchmark itself (not part of the svtkit test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for one second, untraced and traced, and checks the
result line against BENCHMARK.json; checks that a directory without svtkit
sources makes the benchmark fail without printing a result; and checks the
verdicts of compare.py. Takes about three minutes, mostly sweep-1e6.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {k: v["unit"] for k, v in result["metrics"].items()})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("new, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], "same"),
    ([13.0, 13.1, 12.9, 13.0, 13.05], "worse"),
    ([8.0, 8.1, 7.9, 8.0, 8.05], "better"),
    ([6.0, 14.0, 9.0, 12.0, 7.0], "unresolved"),
])
def test_compare_verdicts(new, expected):
    base = [10.0, 10.2, 9.8, 10.1, 9.9]
    assert compare.verdict(base, new, "lower", 0.2) == expected
