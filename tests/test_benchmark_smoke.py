"""Runs the benchmark's smoke test, so a change that breaks the benchmark's
instrumentation (a renamed or deleted function it wraps) fails the test suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
