"""Tests of the benchmark itself: python3 -m pytest bench"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stderr
    report_line, result_line = out.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)
    assert report["end_to_end"]["failed_frac"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize(
    "name, wrong",
    [("dm4r1_h1", (2,)), ("crossed_cyclic", (73, "0" * 64)), ("obstruction_z2", (1, "0" * 64))],
)
def test_wrong_expected_value_is_a_failed_job(name, wrong):
    job = next(j for jobs in workloads.WORKLOADS.values() for j in jobs if j.name == name)
    it = run.run_iteration([dataclasses.replace(job, expect=wrong)], 0, time.perf_counter() + 60)
    assert [(f["job"], f["error"].split(":")[0]) for f in it["failures"]] == [(name, "WrongResult")]
    assert run.run_iteration([job], 0, time.perf_counter() + 60)["failures"] == []


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "coh_deep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
