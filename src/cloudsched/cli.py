"""Command-line entry point: config parsing with defaults, scenario execution,
report and plot-data emission.

Config files are JSON with nested sections ("simulation", "priority",
"catalog", "allocation_bands", "workload", "analysis"); any omitted key takes
its built-in default and is echoed. All outputs are written atomically.
Each report_<mode>.json holds the compact SimReport.to_json() text plus a
newline; load_report reads it back.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .domain import ResourceCatalogEntry, SimConfig, default_catalog
from .priority import PriorityEngineConfig
from .queueing import UnstableError, mg1_waiting
from .simulator import SimReport, compare_analytic, replication_bundle, run
from .workload import (
    Distribution,
    InvalidJobError,
    ParseError,
    WorkloadSpec,
    generate_arrivals,
    jobs_to_csv,
    load_jobs,
    sample_jobs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_UNSTABLE = 4

OUT_DIR_ENV = "CLOUDSCHED_OUT"


class ConfigError(Exception):
    """A config file problem, carrying the offending key path when known."""

    def __init__(self, message: str, keypath: str | None = None, line: int | None = None):
        self.keypath = keypath
        self.line = line
        parts = []
        if keypath:
            parts.append(keypath)
        if line is not None:
            parts.append(f"line {line}")
        super().__init__(f"{': '.join(parts)}: {message}" if parts else message)


@dataclass(frozen=True)
class RunManifest:
    """One CLI invocation: command, config path, output dir, overrides."""

    command: str
    config_path: str | None
    out_dir: str
    seed: int | None
    fmt: str
    jobs_path: str | None = None
    report_path: str | None = None


@dataclass(frozen=True)
class ParsedConfig:
    """Bundle returned by parse_config: module configs plus the defaults applied."""

    sim: SimConfig
    workload: WorkloadSpec
    priority: PriorityEngineConfig
    analysis: tuple[tuple[float, float, float], ...] | None
    applied_defaults: tuple[str, ...]


def _expect_num(value, keypath: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", keypath)
    return float(value)


def _expect_int(value, keypath: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", keypath)
    return value


def _expect_numlist(value, keypath: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"expected a non-empty list of numbers, got {value!r}", keypath)
    return tuple(_expect_num(v, f"{keypath}[{i}]") for i, v in enumerate(value))


def _expect_pair(value, keypath: str) -> tuple[float, float]:
    pair = _expect_numlist(value, keypath)
    if len(pair) != 2:
        raise ConfigError(f"expected [lo, hi], got {value!r}", keypath)
    return (pair[0], pair[1])


def _section(data: dict, name: str) -> dict:
    sec = data.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"expected an object, got {sec!r}", name)
    return sec


def _take(section: dict, section_name: str, key: str, convert, default,
          applied: list[str]):
    if key in section:
        return convert(section[key], f"{section_name}.{key}")
    applied.append(f"{section_name}.{key}={default!r}")
    return default


def _check_unknown(section: dict, section_name: str, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError("unknown key", f"{section_name}.{key}")


def _parse_distribution(value, keypath: str) -> Distribution:
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object with kind/params, got {value!r}", keypath)
    _check_unknown(value, keypath, ("kind", "params"))
    kind = value.get("kind")
    if not isinstance(kind, str):
        raise ConfigError(f"expected a string kind, got {kind!r}", f"{keypath}.kind")
    params = _expect_numlist(value.get("params", []), f"{keypath}.params")
    try:
        return Distribution(kind, params)
    except ValueError as exc:
        raise ConfigError(str(exc), keypath) from None


_DEFAULTS = SimConfig()

_SIM_KEYS = ("num_tasks", "num_vms", "arrival_rate", "class_rates", "seed",
             "retry_interval", "due_time", "exec_time", "prep_time", "epoch_length",
             "mu_base", "max_retries", "max_queue_length")
_PRIORITY_KEYS = ("beta", "w_urgency", "w_demand", "order_norm", "relationship_norm",
                  "business_cap", "blank_time")
_WORKLOAD_KEYS = ("due", "exec", "prep", "demand_weights", "order_range",
                  "relationship_range")
_TOP_KEYS = ("simulation", "priority", "catalog", "allocation_bands", "workload",
             "analysis")


def parse_config(path: str | Path | None) -> ParsedConfig:
    """Load a JSON config file (or all defaults when path is None).

    Every omitted key takes its default and is recorded in applied_defaults.
    Unknown keys, type mismatches, and invariant violations raise ConfigError
    naming the key path.
    """
    if path is None:
        data = {}
    else:
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(exc.msg, keypath=str(path), line=exc.lineno) from None
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    _check_unknown(data, "config", _TOP_KEYS)

    applied: list[str] = []
    sim_sec = _section(data, "simulation")
    _check_unknown(sim_sec, "simulation", _SIM_KEYS)
    pri_sec = _section(data, "priority")
    _check_unknown(pri_sec, "priority", _PRIORITY_KEYS)
    wl_sec = _section(data, "workload")
    _check_unknown(wl_sec, "workload", _WORKLOAD_KEYS)

    d = _DEFAULTS
    num_tasks = _take(sim_sec, "simulation", "num_tasks", _expect_int, d.num_tasks, applied)
    num_vms = _take(sim_sec, "simulation", "num_vms", _expect_int, d.num_vms, applied)
    arrival_rate = _take(sim_sec, "simulation", "arrival_rate", _expect_num,
                         d.arrival_rate, applied)
    class_rates = _take(sim_sec, "simulation", "class_rates", _expect_numlist,
                        d.class_rates, applied)
    seed = _take(sim_sec, "simulation", "seed", _expect_int, d.seed, applied)
    retry_interval = _take(sim_sec, "simulation", "retry_interval", _expect_num,
                           d.retry_interval, applied)
    due_time = _take(sim_sec, "simulation", "due_time", _expect_num, d.due_time, applied)
    exec_time = _take(sim_sec, "simulation", "exec_time", _expect_num, d.exec_time, applied)
    prep_time = _take(sim_sec, "simulation", "prep_time", _expect_num, d.prep_time, applied)
    epoch_length = _take(sim_sec, "simulation", "epoch_length", _expect_num,
                         d.epoch_length, applied)
    mu_base = _take(sim_sec, "simulation", "mu_base", _expect_num, d.mu_base, applied)
    max_retries = _take(sim_sec, "simulation", "max_retries", _expect_int,
                        d.max_retries, applied)
    max_queue_length = _take(sim_sec, "simulation", "max_queue_length", _expect_int,
                             d.max_queue_length, applied)

    beta = _take(pri_sec, "priority", "beta", _expect_num, d.beta, applied)
    w_urgency = _take(pri_sec, "priority", "w_urgency", _expect_num, d.w_urgency, applied)
    w_demand = _take(pri_sec, "priority", "w_demand", _expect_num, d.w_demand, applied)
    order_norm = _take(pri_sec, "priority", "order_norm", _expect_num, d.order_norm, applied)
    relationship_norm = _take(pri_sec, "priority", "relationship_norm", _expect_num,
                              d.relationship_norm, applied)
    business_cap = _take(pri_sec, "priority", "business_cap", _expect_num,
                         d.business_cap, applied)
    blank_time = _take(pri_sec, "priority", "blank_time", _expect_num, d.blank_time, applied)

    if "catalog" in data:
        raw_catalog = data["catalog"]
        if not isinstance(raw_catalog, list) or not raw_catalog:
            raise ConfigError("expected a non-empty list of catalog entries", "catalog")
        catalog = []
        for i, entry in enumerate(raw_catalog):
            if not isinstance(entry, dict):
                raise ConfigError(f"expected an object, got {entry!r}", f"catalog[{i}]")
            _check_unknown(entry, f"catalog[{i}]",
                           ("name", "cores", "ecus", "ram", "arch_bits", "disk", "cost"))
            try:
                catalog.append(ResourceCatalogEntry.from_dict(entry))
            except (KeyError, ValueError) as exc:
                raise ConfigError(str(exc), f"catalog[{i}]") from None
        catalog = tuple(catalog)
    else:
        catalog = default_catalog()
        applied.append("catalog=<default 5-entry catalog>")

    if "allocation_bands" in data:
        raw_bands = data["allocation_bands"]
        if not isinstance(raw_bands, list):
            raise ConfigError("expected a list of [lo, hi, probability]", "allocation_bands")
        bands = []
        for i, band in enumerate(raw_bands):
            if not isinstance(band, list) or len(band) != 3:
                raise ConfigError(f"expected [lo, hi, probability], got {band!r}",
                                  f"allocation_bands[{i}]")
            bands.append((_expect_int(band[0], f"allocation_bands[{i}][0]"),
                          _expect_int(band[1], f"allocation_bands[{i}][1]"),
                          _expect_num(band[2], f"allocation_bands[{i}][2]")))
        bands = tuple(bands)
    else:
        bands = d.allocation_bands
        applied.append("allocation_bands=<default 10-band table>")

    try:
        priority_cfg = PriorityEngineConfig(
            beta=beta, w_urgency=w_urgency, w_demand=w_demand, order_norm=order_norm,
            relationship_norm=relationship_norm, business_cap=business_cap,
            blank_time=blank_time)
    except ValueError as exc:
        raise ConfigError(str(exc), "priority") from None

    try:
        sim = SimConfig(
            num_tasks=num_tasks, num_vms=num_vms, arrival_rate=arrival_rate,
            class_rates=class_rates, beta=beta, blank_time=blank_time,
            w_urgency=w_urgency, w_demand=w_demand, order_norm=order_norm,
            relationship_norm=relationship_norm, business_cap=business_cap, seed=seed,
            catalog=catalog, allocation_bands=bands, retry_interval=retry_interval,
            due_time=due_time, exec_time=exec_time, prep_time=prep_time,
            epoch_length=epoch_length, mu_base=mu_base, max_retries=max_retries,
            max_queue_length=max_queue_length)
    except ValueError as exc:
        raise ConfigError(str(exc), "simulation") from None

    due_dist = (_parse_distribution(wl_sec["due"], "workload.due") if "due" in wl_sec
                else Distribution("fixed", (due_time,)))
    if "due" not in wl_sec:
        applied.append(f"workload.due=fixed({due_time!r})")
    exec_dist = (_parse_distribution(wl_sec["exec"], "workload.exec") if "exec" in wl_sec
                 else Distribution("fixed", (exec_time,)))
    if "exec" not in wl_sec:
        applied.append(f"workload.exec=fixed({exec_time!r})")
    prep_dist = (_parse_distribution(wl_sec["prep"], "workload.prep") if "prep" in wl_sec
                 else Distribution("fixed", (prep_time,)))
    if "prep" not in wl_sec:
        applied.append(f"workload.prep=fixed({prep_time!r})")

    if "demand_weights" in wl_sec and wl_sec["demand_weights"] is not None:
        demand_weights = _expect_numlist(wl_sec["demand_weights"], "workload.demand_weights")
    else:
        demand_weights = None
        if "demand_weights" not in wl_sec:
            applied.append("workload.demand_weights=uniform")
    order_range = _take(wl_sec, "workload", "order_range", _expect_pair,
                        (0.0, 1000.0), applied)
    relationship_range = _take(wl_sec, "workload", "relationship_range", _expect_pair,
                               (0.0, 100.0), applied)

    try:
        workload = WorkloadSpec(
            rate=arrival_rate, class_rates=class_rates, num_tasks=num_tasks,
            due_dist=due_dist, exec_dist=exec_dist, prep_dist=prep_dist,
            catalog=catalog, demand_weights=demand_weights, order_range=order_range,
            relationship_range=relationship_range, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc), "workload") from None

    analysis = None
    if "analysis" in data:
        ana = _section(data, "analysis")
        _check_unknown(ana, "analysis", ("classes",))
        raw_classes = ana.get("classes")
        if not isinstance(raw_classes, list) or not raw_classes:
            raise ConfigError("expected a non-empty list of classes", "analysis.classes")
        moments = []
        for i, cl in enumerate(raw_classes):
            if not isinstance(cl, dict):
                raise ConfigError(f"expected an object, got {cl!r}", f"analysis.classes[{i}]")
            _check_unknown(cl, f"analysis.classes[{i}]",
                           ("rate", "mean_service", "mean_service_sq"))
            try:
                moments.append((
                    _expect_num(cl["rate"], f"analysis.classes[{i}].rate"),
                    _expect_num(cl["mean_service"], f"analysis.classes[{i}].mean_service"),
                    _expect_num(cl["mean_service_sq"],
                                f"analysis.classes[{i}].mean_service_sq"),
                ))
            except KeyError as exc:
                raise ConfigError(f"missing key {exc.args[0]!r}",
                                  f"analysis.classes[{i}]") from None
        analysis = tuple(moments)

    return ParsedConfig(sim=sim, workload=workload, priority=priority_cfg,
                        analysis=analysis, applied_defaults=tuple(applied))


def effective_config(parsed: ParsedConfig) -> dict:
    """The fully-resolved config as a dict in the config file schema."""
    sim = parsed.sim
    wl = parsed.workload
    result = {
        "simulation": {
            "num_tasks": sim.num_tasks, "num_vms": sim.num_vms,
            "arrival_rate": sim.arrival_rate, "class_rates": list(sim.class_rates),
            "seed": sim.seed, "retry_interval": sim.retry_interval,
            "due_time": sim.due_time, "exec_time": sim.exec_time,
            "prep_time": sim.prep_time, "epoch_length": sim.epoch_length,
            "mu_base": sim.mu_base, "max_retries": sim.max_retries,
            "max_queue_length": sim.max_queue_length,
        },
        "priority": {
            "beta": sim.beta, "w_urgency": sim.w_urgency, "w_demand": sim.w_demand,
            "order_norm": sim.order_norm, "relationship_norm": sim.relationship_norm,
            "business_cap": sim.business_cap, "blank_time": sim.blank_time,
        },
        "catalog": [c.to_dict() for c in sim.catalog],
        "allocation_bands": [list(b) for b in sim.allocation_bands],
        "workload": {
            "due": wl.due_dist.to_dict(), "exec": wl.exec_dist.to_dict(),
            "prep": wl.prep_dist.to_dict(),
            "demand_weights": list(wl.demand_weights) if wl.demand_weights else None,
            "order_range": list(wl.order_range),
            "relationship_range": list(wl.relationship_range),
        },
    }
    if parsed.analysis is not None:
        result["analysis"] = {"classes": [
            {"rate": r, "mean_service": es, "mean_service_sq": es2}
            for r, es, es2 in parsed.analysis]}
    return result


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _table_text(header, rows, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _write_table(out_dir: Path, name: str, header, rows, fmt: str) -> Path:
    path = out_dir / f"{name}.{fmt}"
    _write_atomic(path, _table_text(header, rows, fmt))
    return path


def _ensure_out(out_dir: str) -> Path:
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from None
    if not os.access(path, os.W_OK):
        raise OSError(f"output directory not writable: {out_dir}")
    return path


def _echo_defaults(parsed: ParsedConfig) -> None:
    if parsed.applied_defaults:
        print(f"defaults applied ({len(parsed.applied_defaults)}): "
              + ", ".join(parsed.applied_defaults))


def _load_parsed(manifest: RunManifest) -> ParsedConfig:
    parsed = parse_config(manifest.config_path)
    if manifest.seed is not None:
        parsed = ParsedConfig(
            sim=replace(parsed.sim, seed=manifest.seed),
            workload=replace(parsed.workload, seed=manifest.seed),
            priority=parsed.priority,
            analysis=parsed.analysis,
            applied_defaults=parsed.applied_defaults,
        )
    return parsed


_JOB_TABLE_HEADER = ("job_id", "arrival", "ack", "allocation", "start", "completion",
                     "wait", "rank", "tp_score", "bp_score", "resultant", "class_index",
                     "chain_position", "instance", "cost", "sls", "deadline_met",
                     "status", "retries")


def _job_rows(report: SimReport):
    for r in report.jobs:
        yield (r.job_id, r.arrival, r.ack, r.allocation, r.start, r.completion, r.wait,
               r.rank, r.tp_score, r.bp_score, r.resultant, r.class_index,
               r.chain_position, r.instance, r.cost, r.sls, r.deadline_met, r.status,
               r.retries)


def _write_report(out_dir: Path, report: SimReport, fmt: str) -> None:
    _write_atomic(out_dir / f"report_{report.mode}.json", report.to_json() + "\n")
    _write_table(out_dir, f"jobs_{report.mode}", _JOB_TABLE_HEADER, _job_rows(report), fmt)
    _write_table(out_dir, f"bands_{report.mode}", ("band", "mean_wait"),
                 list(report.band_waits.items()), fmt)


def load_report(path) -> SimReport:
    """Read back a structured report written by cmd_simulate."""
    with open(path) as fh:
        return SimReport.from_dict(json.load(fh))


def cmd_generate(manifest: RunManifest) -> int:
    parsed = _load_parsed(manifest)
    _echo_defaults(parsed)
    out = _ensure_out(manifest.out_dir)
    spec = parsed.workload
    jobs = sample_jobs(spec, generate_arrivals(spec))
    path = out / "jobs.csv"
    _write_atomic(path, jobs_to_csv(jobs))
    print(f"generated {len(jobs)} jobs at rate {spec.rate:g}/s (seed {spec.seed}) -> {path}")
    return EXIT_OK


def cmd_simulate(manifest: RunManifest) -> int:
    parsed = _load_parsed(manifest)
    _echo_defaults(parsed)
    out = _ensure_out(manifest.out_dir)
    if manifest.jobs_path is not None:
        jobs = load_jobs(manifest.jobs_path)
        if not jobs:
            raise ConfigError(f"workload file {manifest.jobs_path} contains no jobs")
    else:
        spec = parsed.workload
        jobs = sample_jobs(spec, generate_arrivals(spec))

    native = run(parsed.sim, jobs, mode="native")
    resultant = run(parsed.sim, jobs, mode="resultant")
    _write_report(out, native, manifest.fmt)
    _write_report(out, resultant, manifest.fmt)

    beta = parsed.sim.beta
    nat_by_id = {r.job_id: r for r in native.jobs}
    boosted = [(nat_by_id[r.job_id], r) for r in resultant.jobs
               if r.tp_score is not None and r.tp_score > beta
               and r.bp_score is not None and r.bp_score > 0]
    boosted_done = [(n, r) for n, r in boosted
                    if n.status == "completed" and r.status == "completed"]
    mean_nat = (sum(n.wait for n, _ in boosted_done) / len(boosted_done)
                if boosted_done else 0.0)
    mean_res = (sum(r.wait for _, r in boosted_done) / len(boosted_done)
                if boosted_done else 0.0)
    comparison = {
        "boosted_jobs": len(boosted),
        "rank_never_worse": all(r.rank <= n.rank for n, r in boosted),
        "mean_wait_native": mean_nat,
        "mean_wait_resultant": mean_res,
        "mean_wait_not_increased": mean_res <= mean_nat,
    }
    _write_atomic(out / "comparison.json",
                  json.dumps(comparison, sort_keys=True, indent=2) + "\n")
    print(f"simulated {len(jobs)} jobs twice (native, resultant) -> {out}")
    print(f"boosted jobs: {comparison['boosted_jobs']}, "
          f"mean wait native {mean_nat:.4f}s vs resultant {mean_res:.4f}s")
    if native.unstable or resultant.unstable:
        print("warning: run flagged unstable; reports are partial", file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_OK


def cmd_analyze(manifest: RunManifest) -> int:
    parsed = _load_parsed(manifest)
    _echo_defaults(parsed)
    out = _ensure_out(manifest.out_dir)
    if parsed.analysis is None:
        raise ConfigError("analyze requires an analysis.classes section in the config")
    waits = mg1_waiting(parsed.analysis)
    rows = [(i + 1, rate, es, es2, w)
            for i, ((rate, es, es2), w) in enumerate(zip(parsed.analysis, waits))]
    _write_table(out, "analysis", ("class", "rate", "mean_service", "mean_service_sq",
                                   "mean_wait"), rows, manifest.fmt)
    for i, w in enumerate(waits, start=1):
        print(f"class {i}: analytic mean wait {w:.6g}")
    if manifest.report_path is not None:
        report = load_report(manifest.report_path)
        errors = compare_analytic(report, parsed.analysis)
        _write_table(out, "analysis_vs_simulation", ("class", "relative_error"),
                     list(enumerate(errors, start=1)), manifest.fmt)
        for i, err in enumerate(errors, start=1):
            print(f"class {i}: relative error vs simulation {err:.4f}")
    return EXIT_OK


def cmd_replicate(manifest: RunManifest) -> int:
    parsed = _load_parsed(manifest)
    _echo_defaults(parsed)
    out = _ensure_out(manifest.out_dir)
    rows = replication_bundle(parsed.sim)
    _write_table(out, "replication", ("series", "x", "value", "provenance"),
                 [(r.series, r.x, r.value, r.provenance) for r in rows], manifest.fmt)
    series = sorted({r.series for r in rows})
    print(f"wrote {len(rows)} replication rows ({', '.join(series)}) -> {out}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "replicate": cmd_replicate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudsched",
        description="Business-value-aware cloud task scheduling simulator")
    parser.add_argument("--print-config", action="store_true",
                        help="print the fully-resolved config as JSON and exit")
    parser.add_argument("--config", dest="root_config", metavar="PATH",
                        help="config file for --print-config")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file (defaults apply for omitted keys)")
    common.add_argument("--out", metavar="DIR",
                        default=os.environ.get(OUT_DIR_ENV, "."),
                        help=f"output directory (default $'{OUT_DIR_ENV}' or '.')")
    common.add_argument("--seed", type=int, default=None, help="seed override")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("generate", parents=[common], help="write a synthetic workload file")
    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run paired native/resultant simulations")
    p_sim.add_argument("--jobs", metavar="PATH", default=None,
                       help="existing workload file (otherwise generated inline)")
    p_ana = sub.add_parser("analyze", parents=[common],
                           help="closed-form waiting times per class")
    p_ana.add_argument("--report", metavar="PATH", default=None,
                       help="simulation report to compare against")
    sub.add_parser("replicate", parents=[common], help="emit the replication bundle")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.print_config:
            parsed = parse_config(args.root_config)
            print(json.dumps(effective_config(parsed), indent=2))
            return EXIT_OK
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("cloudsched: a command is required", file=sys.stderr)
            return EXIT_CONFIG
        manifest = RunManifest(
            command=args.command,
            config_path=args.config,
            out_dir=args.out,
            seed=args.seed,
            fmt=args.format,
            jobs_path=getattr(args, "jobs", None),
            report_path=getattr(args, "report", None),
        )
        return _COMMANDS[manifest.command](manifest)
    except (ConfigError, ParseError, InvalidJobError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnstableError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNSTABLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
