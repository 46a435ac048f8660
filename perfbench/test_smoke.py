"""Smoke test of the benchmark itself, on tiny A3 versions of each workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["classify-A3", "verify-A3", "query-A3"])
def test_reports_every_declared_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    assert report["seed"] == 7
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if workload.startswith("query"):
        histogram = report["interval_lengths"]
        assert set(histogram) == {"1", "2", "3", "4", "5", "6", "incomparable"}
        assert set(histogram.values()) == {report["passes"]}
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(v for name, v in metrics.items()
                     if name.endswith("_s") and not name.startswith("trace."))
        assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
        assert (ROOT / report["trace_file"]).is_file()


def test_fails_without_the_program():
    stripped = HERE / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    try:
        proc = bench("query-A3", 0, cwd=stripped)
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert proc.stdout == ""
