"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py

It checks that each workload runs, passes its output checks and prints
exactly the metrics BENCHMARK.json names, that traced runs repeat their
exact counts, that the generator still produces its golden catalogue, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd, check=False)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_exact_counts(workload):
    first, second = (result_of(run(workload, 1))["metrics"] for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    counts = {k for k, v in first.items() if v["unit"] == "count"}
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_generator_reproduces_its_golden_catalogue():
    golden = json.loads((HERE / "golden" / "compile_mix.json").read_text())
    assert len(golden) == gen.SLOTS * gen.VARIANTS
    for slot in range(gen.SLOTS):
        for variant in range(gen.VARIANTS):
            p = gen.generate(slot, variant)
            assert p.rejections == 0
            assert golden[p.key]["sha1"] == hashlib.sha1(p.text.encode()).hexdigest()
            assert golden[p.key]["cps"] == p.cps == sum(p.mix.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_lists_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
