import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_checks_catch_corrupted_outputs():
    # the benchmark's checks never import the package; its selftest feeds them
    # the package's real outputs and corrupted copies, and exits 1 on a miss
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("workload", ["solve-planted", "oracle-exact", "compose-nested"])
def test_benchmark_round_is_correct(workload):
    # one minimal run of each workload: every call the benchmark makes into
    # the package still exists and every output passes its check
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "11", "--seconds", "0", "--trace", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result


@pytest.mark.parametrize("workload,listed", [
    ("solve-planted", ["outlier_sdp.distortion_feasible.calls"]),
    ("oracle-exact", ["outlier_sdp.distortion_feasible.calls", "outlier_sdp.eigh.calls"]),
])
def test_traced_round_sees_the_feasibility_runs(workload, listed):
    # the tracer wraps public functions only: every feasibility run, and the
    # eigendecompositions inside it, must go through a public outlier_sdp name
    # for these per-layer counters to read above 0
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "11", "--seconds", "0", "--trace", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    for name in listed:
        assert result["metrics"][name]["value"] > 0, (name, result["metrics"].get(name))
