"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload and trace setting it runs run.py with 200 jobs and checks
that the run exits 0, that its output checks pass, and that the result names
exactly the metrics BENCHMARK.json declares, with the declared units, each
also printed by name. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_JOBS = 200


def check(workload: str, trace: int, declared: dict, printed_names) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--jobs", str(SMOKE_JOBS)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"output checks failed: {proc.stdout.strip()[-1000:]}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(declared):
        errors.append(f"metrics {sorted(metrics)} != declared {sorted(declared)}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{name}: unit {got.get('unit')!r} != declared {unit!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{name}: value {got.get('value')!r} is not a finite number")
    printed = {line.split()[1] for line in proc.stdout.splitlines()
               if line.startswith("metric ")}
    if not set(printed_names) <= printed:
        errors.append(f"not printed by name: {sorted(set(printed_names) - printed)}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        # A traced run also prints the end-to-end metrics of its untraced samples.
        for trace, declared, printed in ((0, e2e, e2e), (1, layers, {**e2e, **layers})):
            errors = check(workload, trace, declared, printed)
            print(f"{workload} trace={trace}: {'ok' if not errors else 'FAILED'}")
            for e in errors:
                print(f"  {e}")
            failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
