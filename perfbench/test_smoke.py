"""Smoke test of the benchmark: every workload in both modes at tiny sizes.

    python3 -m pytest perfbench -q

Not part of the library's test suite (pyproject.toml points pytest at
tests/); it takes under a minute.
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

import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run(root, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    machine = json.loads(lines[-2])["machine"]
    assert {"nproc", "blas", "env", "git_commit", "rss_source"} <= set(machine)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run(tmp_path, "--workload", wl.WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
