"""Runs the benchmark's smoke test, so a change that breaks the benchmark's
instrumentation (a renamed or deleted function it wraps) fails the test suite.

The smoke test runs on a copy of the benchmark scripts, the sources and
BENCHMARK.json, so that its work files never replace the results of a
benchmark run under perfbench/_work/."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, tmp_path / "perfbench")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "smoke.py")],
                          cwd=tmp_path, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
