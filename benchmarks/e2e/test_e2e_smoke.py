"""Smoke test of the end-to-end benchmark (``--scale smoke``, ~15 s).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Calls
``run.py`` with the per-run arguments ``BENCHMARK.json``'s command takes
and checks its output contract, not the program's speed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--scale", "smoke",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--trace", trace)
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        line = rf"^  {re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}$"
        assert re.search(line, proc.stdout, re.M), metric["name"]


def test_corrupted_golden_digest_counts_as_failure(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    golden["smoke"]["figure4_wide"]["ddl"] = "0" * 64
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden), encoding="utf-8")
    proc = bench("--workload", "figure4_wide", "--golden", str(corrupted))
    result = result_line(proc)
    assert not result["correct"]
    assert result["failed"] >= 1
    rate = re.search(r"\(reported\) error_rate = (\S+)", proc.stdout)
    assert rate and float(rate.group(1)) > 0
