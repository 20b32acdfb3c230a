"""Benchmark of `cloudsched simulate`: one paired native + resultant run per sample.

Usage (from the repository root):

    python3 perfbench/run.py --workload ref-20k --seed 1 --seconds 40 --trace 0

Each sample is a fresh single-threaded interpreter running sample.py. With
`--trace 0` every sample is untraced and the result holds the end-to-end
metrics; with `--trace 1` traced and untraced samples alternate and the
result holds the per-layer metrics. Human-readable lines (environment,
simulated outputs, every metric with its unit) come first; the last line of
standard output is the JSON result. Work files go to perfbench/_work/.
See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_JOBS = 20_000
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "sim_jobs_per_s": "jobs/s",
    "engine_jobs_per_s": "jobs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "workload.jobs_s": "s",
    "priority.window_stats_s": "s",
    "priority.windows": "count",
    "priority.build_record_s": "s",
    "priority.build_record_calls": "count",
    "priority.boosted_share": "ratio",
    "queueing.try_allocate_s": "s",
    "queueing.try_allocate_calls": "count",
    "queueing.admit_ratio": "ratio",
    "queueing.retries": "count",
    "queueing.queue_ops_s": "s",
    "queueing.peak_queue_len": "count",
    "queueing.stuck": "count",
    "simulator.rng_setup_s": "s",
    "simulator.rng_streams": "count",
    "simulator.run_self_s": "s",
    "simulator.run_us_per_job": "us/job",
    "simulator.heap_events": "count",
    "simulator.events_per_s": "1/s",
    "simulator.to_json_s": "s",
    "simulator.report_bytes": "bytes",
    "cli.parse_config_s": "s",
    "cli.simulate_self_s": "s",
    "cli.output_bytes": "bytes",
    "domain.validate_job_calls": "count",
    "trace.spans": "count",
    "trace.overhead_jobs_per_s": "jobs/s",
}


def _reference(n_jobs: int, seed: int, num_vms: int) -> dict:
    """The paper's reference scenario: fixed 700/650/5 s timing, 6 classes, 1 job/s."""
    return {"simulation": {
        "num_tasks": n_jobs, "seed": seed, "num_vms": num_vms, "arrival_rate": 1.0,
        "class_rates": [1.0 / 6] * 6, "due_time": 700.0, "exec_time": 650.0,
        "prep_time": 5.0}}


def _mixed(n_jobs: int, seed: int) -> dict:
    config = _reference(n_jobs, seed, 2500)
    config["workload"] = {
        "due": {"kind": "uniform", "params": [660.0, 3600.0]},
        "exec": {"kind": "exponential", "params": [650.0]},
        "prep": {"kind": "uniform", "params": [0.0, 10.0]},
    }
    return config


# name -> (config builder, whether jobs are written to a file first)
WORKLOADS = {
    "ref-20k": (lambda n, seed: _reference(n, seed, 2500), False),
    "saturated-20k": (lambda n, seed: _reference(n, seed, 600), False),
    "mixed-file-20k": (_mixed, True),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    return env


def _run_child(argv: list[str], env: dict) -> tuple[dict | None, str]:
    """Run one child interpreter; returns its last-line JSON (or None) and an error."""
    try:
        proc = subprocess.run([sys.executable] + argv, env=env, cwd=ROOT,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S}s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), ""
    except (IndexError, ValueError):
        return None, f"no JSON result; stderr: {proc.stderr.strip()[-500:]}"


def _git_commit() -> str:
    """HEAD commit read from .git in the checkout, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                    help="input jobs per sample (smoke tests use a tiny size)")
    args = ap.parse_args()

    if not (SRC / "cloudsched" / "__init__.py").is_file():
        print(f"error: no cloudsched sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    # One work directory per workload and trace setting bounds the disk used.
    work = HERE / "_work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env()
    build_config, from_file = WORKLOADS[args.workload]
    config_path = work / "config.json"
    config_path.write_text(json.dumps(build_config(args.jobs, args.seed), indent=2))

    sample_argv = [str(HERE / "sample.py"), "--config", str(config_path),
                   "--n-jobs", str(args.jobs)]
    if from_file:
        gen_env = dict(env, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "cloudsched.cli", "generate", "--config", str(config_path),
             "--out", str(work)],
            env=gen_env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: cloudsched generate failed: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        sample_argv += ["--jobs", str(work / "jobs.csv")]

    problems: list[str] = []
    # The first interpreter start warms file caches and writes bytecode; not counted.
    _run_child(sample_argv + ["--out", str(work), "--setup-only"], env)
    setup_times = []

    samples = {0: [], 1: []}
    kinds = (1, 0) if args.trace else (0,)
    # Duration of the latest sample of each kind predicts the next one.
    last = {0: 0.0, 1: 0.0}
    attempted = failed = 0
    while True:
        kind = kinds[attempted % len(kinds)]
        if (attempted >= len(kinds)
                and time.perf_counter() - start + last[kind] > args.seconds):
            break
        out = work / f"out-trace{kind}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv = sample_argv + ["--out", str(out), "--trace", str(kind)]
        if kind == 0 and not samples[0]:
            argv.append("--full-check")
        began = time.perf_counter()
        res, err = _run_child(argv, env)
        last[kind] = time.perf_counter() - began
        attempted += 1
        errors = [err] if res is None else res["problems"]
        if errors:
            failed += 1
            problems.extend(f"sample {attempted} (trace {kind}): {e}" for e in errors)
            continue
        samples[kind].append(res)
        setup_times.append(res["setup_s"])

    ok = samples[0] + samples[1]
    checked = [s for s in ok if "modes" in s["outputs"]]
    if len({json.dumps(s["outputs"]["file_sha256"], sort_keys=True) for s in ok}) > 1:
        problems.append("output files differ between samples")
    if len({tuple(s["outputs"]["modes"][m]["report_sha256"] for m in ("native", "resultant"))
            for s in checked}) > 1:
        problems.append("report to_json() hashes differ between samples")
    if not checked or not samples[0] or (args.trace and not samples[1]):
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        print("error: no successful sample to report", file=sys.stderr)
        return 1

    n2 = 2 * args.jobs
    untraced = samples[0]
    dist = {
        "sim_jobs_per_s": [n2 / s["wall_s"] for s in untraced],
        "engine_jobs_per_s": [n2 / sum(s["run_s"]) for s in untraced],
        "setup_s": setup_times,
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        "success_rate": [(attempted - failed) / attempted],
    }
    if args.trace:
        for name in PER_LAYER:
            if name != "trace.overhead_jobs_per_s":
                dist[name] = [s["layers"][name] for s in samples[1]]
        dist["trace.overhead_jobs_per_s"] = [
            statistics.median(s["layers"]["trace.sim_jobs_per_s"] for s in samples[1])
            - statistics.median(dist["sim_jobs_per_s"])]
    units = dict(END_TO_END, **PER_LAYER)
    summary = {name: (_quartiles(values), len(values)) for name, values in dist.items()}

    env_info = {
        "workload": args.workload, "seed": args.seed, "jobs": args.jobs,
        "seconds": args.seconds, "trace": args.trace, "commit": _git_commit(),
        "python": platform.python_version(), "numpy": ok[0]["numpy"],
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
    }
    outputs = checked[0]["outputs"]
    print("environment " + json.dumps(env_info, sort_keys=True))
    for mode, stats in outputs["modes"].items():
        print(f"outputs {mode} " + json.dumps(stats, sort_keys=True))
    print("outputs comparison " + json.dumps(outputs["comparison"], sort_keys=True))
    for p in problems:
        print(f"problem: {p}")
    for name, ((q1, med, q3), n) in summary.items():
        print(f"metric {name} = {med:.6g} {units[name]} (median of {n}; q1 {q1:.6g}, q3 {q3:.6g})")

    reported = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summary[name][0][1], "unit": reported[name]}
                    for name in reported},
    }
    (work / "result.json").write_text(json.dumps(
        {"environment": env_info, "outputs": outputs, "problems": problems,
         "distributions": dist, "result": result}, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
