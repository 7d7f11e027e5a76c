"""Self-test of the benchmark at smoke sizes.

    python -m pytest bench/test_smoke.py -q

Each workload runs once untraced and once traced with ``--smoke``. Every
metric that ``BENCHMARK.json`` names must appear with its unit, every
correctness check must pass, and ``ok_frac`` must be 1.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float)), metric["name"]
    if trace:
        assert result["metrics"]["host.ref_kernel_s"]["value"] > 0
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in expected)


def test_refuses_to_run_without_the_package(tmp_path):
    """A directory that holds only the benchmark gives a non-zero exit and no result."""
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "serve-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
