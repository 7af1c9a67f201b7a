"""The harness's own tests: every workload at its smoke size, in both modes.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@lru_cache(maxsize=None)
def smoke(workload: str, trace: int) -> tuple[str, dict]:
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "0.2",
                "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_declared_metric(workload, trace):
    _, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_documents_repeat_exactly_across_runs(workload):
    def documents_line(stdout: str) -> str:
        line = next(s for s in stdout.splitlines() if s.startswith("documents:"))
        return line.split(" (")[0]

    assert documents_line(smoke(workload, 0)[0]) == documents_line(smoke(workload, 1)[0])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
