import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_checks_catch_corrupted_outputs():
    # the benchmark's checks never import the package; its selftest feeds them
    # the package's real outputs and corrupted copies, and exits 1 on a miss
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
