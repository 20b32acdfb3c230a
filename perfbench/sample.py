"""One benchmark sample, run in a fresh interpreter by run.py.

Times `import cloudsched` + `cli.parse_config` (set-up), then one paired
`cli.main(["simulate", ...])`, then checks the written outputs. With
`--trace 1` the command runs under the span recorder in tracer.py and the
sample also reports per-layer figures. The last line of standard output is
one JSON object with the sample's measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cloudsched():
    sys.path.insert(0, str(SRC))
    import cloudsched
    from cloudsched import cli

    if not Path(cloudsched.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cloudsched imported from {cloudsched.__file__}, not {SRC}")
    return cli


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_report(report, reloaded, n_jobs: int, problems: list, mode: str) -> dict:
    """Conservation, unique ids and round-trip checks for one mode's report."""
    statuses = {"completed": 0, "rejected": 0, "stuck": 0, "pending": 0}
    for r in reloaded.jobs:
        if r.status not in statuses:
            problems.append(f"{mode}: unknown job status {r.status!r}")
            continue
        statuses[r.status] += 1
    if sum(statuses.values()) != n_jobs:
        problems.append(f"{mode}: completed+rejected+stuck+pending = "
                        f"{sum(statuses.values())}, input has {n_jobs} jobs")
    for key in ("completed", "rejected", "stuck"):
        if getattr(reloaded, key) != statuses[key]:
            problems.append(f"{mode}: report.{key}={getattr(reloaded, key)} but "
                            f"{statuses[key]} records say {key}")
    distinct = len({r.job_id for r in reloaded.jobs})
    if distinct != len(reloaded.jobs) or distinct != n_jobs:
        problems.append(f"{mode}: {distinct} distinct job ids in {len(reloaded.jobs)} "
                        f"records, input has {n_jobs} jobs")
    if report != reloaded:
        problems.append(f"{mode}: report does not round-trip through cli.load_report")
    text = reloaded.to_json()
    allocated = sum(1 for r in reloaded.jobs if r.allocation is not None)
    # window_stats_by_epoch builds one window per arrival epoch of admitted jobs.
    epoch_length = reloaded.config["epoch_length"]
    windows = len({int(r.arrival // epoch_length) for r in reloaded.jobs
                   if r.status != "rejected"})
    return {
        "completed": reloaded.completed,
        "rejected": reloaded.rejected,
        "stuck": reloaded.stuck,
        "pending": statuses["pending"],
        "utilization": reloaded.utilization,
        "deadline_hit_rate": reloaded.deadline_hit_rate,
        "band_waits": reloaded.band_waits,
        "makespan": reloaded.makespan,
        "retries": sum(r.retries for r in reloaded.jobs),
        "allocated": allocated,
        "windows": windows,
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "report_bytes": len(text),
    }


def _check_outputs(cli, out: Path, reports: dict, n_jobs: int, full: bool,
                   problems: list) -> dict:
    """Hash every output file and check comparison.json; with full, check each report.

    Outputs are deterministic, so equal file hashes across samples stand for
    the full checks made on one of them.
    """
    files = sorted(p for p in out.iterdir() if p.is_file())
    outputs = {"file_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                               for p in files},
               "output_bytes": sum(p.stat().st_size for p in files)}
    try:
        comparison = json.loads((out / "comparison.json").read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read comparison.json: {exc!r}")
        comparison = {}
    if comparison and comparison.get("rank_never_worse") is not True:
        problems.append("comparison.json: rank_never_worse is not true")
    outputs["comparison"] = comparison
    if not full:
        return outputs
    outputs["modes"] = {}
    for mode in ("native", "resultant"):
        path = out / f"report_{mode}.json"
        try:
            reloaded = cli.load_report(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{mode}: cannot load {path.name}: {exc!r}")
            continue
        outputs["modes"][mode] = _check_report(reports.get(mode), reloaded, n_jobs,
                                               problems, mode)
    return outputs


def _boosted_share(native, resultant) -> float:
    """Share of jobs whose resultant rank is better (lower) than their native rank."""
    nat_rank = {r.job_id: r.rank for r in native.jobs}
    boosted = sum(1 for r in resultant.jobs
                  if r.rank is not None and nat_rank.get(r.job_id) is not None
                  and r.rank < nat_rank[r.job_id])
    return boosted / len(resultant.jobs)


def _layer_metrics(tracer, reports: dict, outputs: dict, n_jobs: int, wall: float,
                   problems: list) -> dict:
    self_time, calls, violations = tracer.self_times()
    problems.extend(violations)

    def st(*names):
        return sum(self_time.get(n, 0.0) for n in names)

    def nc(name):
        return calls.get(name, 0)

    run_total = tracer.total_time("simulator.run")
    heap_events = sum(n_jobs + o["retries"] + 2 * o["completed"]
                      for o in outputs["modes"].values())
    attempts = nc("queueing.try_allocate")
    allocated = sum(o["allocated"] for o in outputs["modes"].values())
    retries = sum(o["retries"] for o in outputs["modes"].values())
    if attempts != allocated + retries:
        problems.append(f"try_allocate calls {attempts} != allocations {allocated} "
                        f"+ retries {retries}")
    metrics = {
        "workload.jobs_s": st("workload.generate_arrivals", "workload.sample_jobs",
                              "workload.load_jobs"),
        "priority.window_stats_s": st("simulator.window_stats_by_epoch"),
        "priority.windows": sum(o["windows"] for o in outputs["modes"].values()),
        "priority.build_record_s": st("priority.build_record"),
        "priority.build_record_calls": nc("priority.build_record"),
        "priority.boosted_share": _boosted_share(reports["native"], reports["resultant"]),
        "queueing.try_allocate_s": st("queueing.try_allocate"),
        "queueing.try_allocate_calls": attempts,
        "queueing.admit_ratio": allocated / attempts if attempts else 0.0,
        "queueing.retries": retries,
        "queueing.queue_ops_s": st("queueing.QueueClass.enqueue", "queueing.QueueClass.peek",
                                   "queueing.QueueClass.pop"),
        "queueing.peak_queue_len": tracer.peak_queue_len,
        "queueing.stuck": sum(o["stuck"] for o in outputs["modes"].values()),
        "simulator.rng_setup_s": st("simulator.rng.default_rng", "simulator.rng.SeedSequence"),
        "simulator.rng_streams": nc("simulator.rng.default_rng"),
        "simulator.run_self_s": st("simulator.run"),
        "simulator.run_us_per_job": run_total * 1e6 / (2 * n_jobs),
        "simulator.heap_events": heap_events,
        "simulator.events_per_s": heap_events / run_total,
        "simulator.to_json_s": st("simulator.to_json"),
        "simulator.report_bytes": sum(o["report_bytes"] for o in outputs["modes"].values()),
        "cli.parse_config_s": st("cli.parse_config"),
        "cli.simulate_self_s": st("cli.cmd_simulate"),
        "cli.output_bytes": outputs["output_bytes"],
        "domain.validate_job_calls": tracer.counts["domain.validate_job"],
        "trace.spans": len(tracer.spans),
        "trace.sim_jobs_per_s": 2 * n_jobs / wall,
    }
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--jobs", default=None, help="job CSV for simulate --jobs")
    ap.add_argument("--n-jobs", type=int, required=True, help="number of input jobs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--full-check", action="store_true",
                    help="also reload the reports and check them job by job")
    args = ap.parse_args()

    t0 = time.perf_counter()
    cli = _import_cloudsched()
    cli.parse_config(args.config)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from cloudsched.simulator import SimReport

    argv = ["simulate", "--config", args.config, "--out", args.out]
    if args.jobs is not None:
        argv += ["--jobs", args.jobs]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.instrument()

    reports: dict = {}
    run_s = []
    inner_run = cli.run

    def timed_run(config, jobs, mode="resultant"):
        start = time.perf_counter()
        report = inner_run(config, jobs, mode=mode)
        run_s.append(time.perf_counter() - start)
        reports[mode] = report
        return report

    cli.run = timed_run
    start = time.perf_counter()
    if tracer is not None:
        rc = tracer.span("cli.main", cli.main, argv)
    else:
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()

    problems = []
    if rc != 0:
        problems.append(f"simulate exited with code {rc}")
    outputs = {}
    if not problems:
        outputs = _check_outputs(cli, Path(args.out), reports, args.n_jobs,
                                 args.full_check or tracer is not None, problems)

    result = {
        "ok": not problems,
        "problems": problems,
        "setup_s": setup_s,
        "wall_s": wall,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "numpy": sys.modules["numpy"].__version__,
        "outputs": outputs,
    }
    if tracer is not None and not problems:
        for mode in ("native", "resultant"):
            tracer.span("simulator.to_json", SimReport.to_json, reports[mode])
        result["layers"] = _layer_metrics(tracer, reports, outputs, args.n_jobs, wall,
                                          problems)
        result["ok"] = not problems
        tracer.write_spans(Path(args.out) / "spans.csv")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
