"""The benchmark command against its declaration in BENCHMARK.json."""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, key, capsys):
    result = run.run("envelope", 0, 0.0, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in SPEC[key]}
    if trace:
        assert result["metrics"]["out.digest_compared"]["value"] == result["attempted"]
        assert result["metrics"]["out.digest_changed"]["value"] == 0
        assert result["metrics"]["primal.solve.calls.per_op"]["value"] == 5
        shares = [m["value"] for name, m in result["metrics"].items() if name.endswith(".share")]
        assert sum(shares) == pytest.approx(1, abs=0.05)


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "envelope", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
