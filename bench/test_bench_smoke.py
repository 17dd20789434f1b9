"""Smoke test of the benchmark itself: every workload once at its smallest size.

Run with ``python -m pytest bench/test_bench_smoke.py``.  Each workload runs
in its own process, with tracing off and on; the benchmark checks the metric
names and units it prints against BENCHMARK.json and exits non-zero on a
mismatch, and every operation must pass its correctness gate.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["builtins", "nilpotent-sweep", "long-trajectory"])
def test_smoke(workload, trace):
    proc = subprocess.run([sys.executable, str(RUN), "--smoke", "--workload", workload,
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    section = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert section[name] == metric["unit"]
        assert isinstance(metric["value"], float)
    if trace:
        assert result["metrics"]["dynamics.equilibrium_rows.example-6.1"]["value"] == 60000
    else:
        assert set(result["metrics"]) == set(section)
        assert all(m["value"] > 0 for m in result["metrics"].values())
