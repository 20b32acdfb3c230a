"""Command-line entry point: config parsing with defaults, scenario execution,
report and plot-data emission.

Config files are JSON with nested sections ("simulation", "priority",
"catalog", "allocation_bands", "workload", "analysis"); any omitted key takes
its built-in default and is echoed. Config files and reports are read by
one JSON reader, _read_json. Every output is written by _atomic_file: to a
.tmp file that replaces the output when complete, and is removed if writing
fails. main checks that a command's --out can be made before the command
reads its inputs (_check_out), and the command makes it just before its
first write (_ensure_out). generate writes jobs.csv. simulate writes
report_<mode>.json (SimReport.to_json() in schema 2 and a newline) and
bands_<mode>.<fmt> for each mode, and comparison.json. export writes the
job table of a report, jobs_<mode>.<fmt>, one row per job. Every table,
jobs.csv included, is written by one writer, _write_table, from rows it
streams, as csv.writer writes it or as json.dumps(..., indent=2) does; a
json table is encoded a slice of rows at a time. No command builds a
JobRecord. load_report reads a report of schema 2 or 1 back.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

from .domain import FieldError, ResourceCatalogEntry, SimConfig, jsonable
from .queueing import UnsatisfiableDemandError, UnstableError, mg1_waiting
from .simulator import (
    InsufficientSamplesError,
    SimReport,
    compare_analytic,
    replication_bundle,
    run,
    value_texts,
)
from .workload import (
    JOB_FILE_FIELDS,
    Distribution,
    InvalidJobError,
    ParseError,
    WorkloadSpec,
    job_rows,
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

    def __init__(self, message: str, keypath: str | None = None):
        self.keypath = keypath
        super().__init__(f"{keypath}: {message}" if keypath else message)


@dataclass(frozen=True)
class ParsedConfig:
    """Bundle returned by parse_config: module configs plus the defaults applied."""

    sim: SimConfig
    workload: WorkloadSpec
    analysis: tuple[tuple[float, float, float], ...] | None
    applied_defaults: tuple[str, ...]


def _expect_num(value, keypath: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", keypath)
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}", keypath)
    return number


def _expect_int(value, keypath: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", keypath)
    return value


def _expect_str(value, keypath: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", keypath)
    return value


def _expect_list(value, keypath: str, length: int | None = None) -> list:
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        want = "a non-empty list" if length is None else f"a list of {length} items"
        raise ConfigError(f"expected {want}, got {value!r}", keypath)
    return value


def _section(data: dict, name: str) -> dict:
    sec = data.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"expected an object, got {sec!r}", name)
    return sec


def _check_unknown(section: dict, section_name: str, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError("unknown key", f"{section_name}.{key}")


@dataclass(frozen=True)
class _ClassMoments:
    """One analysis.classes entry: arrival rate and the first two service moments."""

    rate: float
    mean_service: float
    mean_service_sq: float

    def __post_init__(self):
        if min(self.rate, self.mean_service, self.mean_service_sq) <= 0:
            raise ValueError("rate, mean_service and mean_service_sq must be > 0")


# Converters by annotated field type. Under `from __future__ import annotations`
# each dataclass field's type is the annotation string, e.g. "tuple[float, ...]".
_SCALARS = {"int": _expect_int, "float": _expect_num, "str": _expect_str}
_RECORDS = {"ResourceCatalogEntry": ResourceCatalogEntry, "Distribution": Distribution}


def _convert(tp: str, value, keypath: str):
    """Check a config value against an annotated field type and convert it."""
    if tp.endswith(" | None"):
        return None if value is None else _convert(tp[:-len(" | None")], value, keypath)
    if tp in _SCALARS:
        return _SCALARS[tp](value, keypath)
    if tp in _RECORDS:
        return _record(_RECORDS[tp], value, keypath)
    if not tp.startswith("tuple["):
        raise TypeError(f"no config converter for field type {tp!r}")
    if tp.endswith(", ...]"):
        item = tp[len("tuple["):-len(", ...]")]
        return tuple(_convert(item, v, f"{keypath}[{i}]")
                     for i, v in enumerate(_expect_list(value, keypath)))
    items = [t.strip() for t in tp[len("tuple["):-1].split(",")]
    values = _expect_list(value, keypath, len(items))
    return tuple(_convert(t, v, f"{keypath}[{i}]") for i, (t, v) in enumerate(zip(items, values)))


def _record(cls, value, keypath: str):
    """Build a dataclass from a config object with every field given."""
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {value!r}", keypath)
    types = {f.name: f.type for f in fields(cls)}
    _check_unknown(value, keypath, types)
    for name in types:
        if name not in value:
            raise ConfigError(f"missing key {name!r}", keypath)
    try:
        return cls(**{name: _convert(tp, value[name], f"{keypath}.{name}")
                      for name, tp in types.items()})
    except ValueError as exc:
        raise ConfigError(str(exc), keypath) from None


def _take(source: dict, keypath: str, tp: str, default, applied: list[str],
          default_text: str | None = None):
    """The value at keypath converted to tp, or the default (recorded in applied)."""
    key = keypath.rsplit(".", 1)[-1]
    if key in source:
        return _convert(tp, source[key], keypath)
    applied.append(f"{keypath}={repr(default) if default_text is None else default_text}")
    return default


_DEFAULTS = SimConfig()

# Config file section and key path of each SimConfig field: the priority
# engine's tuning values go under "priority", the catalog and the bands at the
# top level (None), every other field under "simulation".
_PRIORITY_FIELDS = ("beta", "w_urgency", "order_norm", "relationship_norm", "business_cap")
_SIM_FIELDS = tuple(
    (f.name, f.type, None if f.name in ("catalog", "allocation_bands")
     else "priority" if f.name in _PRIORITY_FIELDS else "simulation")
    for f in fields(SimConfig))
_KEYPATHS = {name: name if sec is None else f"{sec}.{name}" for name, _tp, sec in _SIM_FIELDS}
_DEFAULT_TEXT = {"catalog": f"<default {len(_DEFAULTS.catalog)}-entry catalog>",
                 "allocation_bands": f"<default {len(_DEFAULTS.allocation_bands)}-band table>"}
# Workload section keys and the WorkloadSpec fields they set.
_WORKLOAD_KEYS = {"due": "due_dist", "exec": "exec_dist", "prep": "prep_dist",
                  "demand_weights": "demand_weights", "order_range": "order_range",
                  "relationship_range": "relationship_range"}
_TOP_KEYS = ("simulation", "priority", "catalog", "allocation_bands", "workload",
             "analysis")


def _read_json(path, error):
    """The JSON value of the UTF-8 file at path. A file that is not UTF-8 or
    not JSON raises error(f"{path}: not valid JSON: {exc}")."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise error(f"{path}: not valid JSON: {exc}") from None


def parse_config(path: str | Path | None) -> ParsedConfig:
    """Load a JSON config file with _read_json, or all defaults when path is None.

    Every omitted key takes its default and is recorded in applied_defaults.
    A file that is not UTF-8 or not JSON raises ConfigError naming the file;
    unknown keys, type mismatches, and invariant violations raise ConfigError
    naming the key path.
    """
    data = {} if path is None else _read_json(path, ConfigError)
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    _check_unknown(data, "config", _TOP_KEYS)

    sections = {name: _section(data, name) for name in ("simulation", "priority", "workload")}
    for name in ("simulation", "priority"):
        _check_unknown(sections[name], name, {f for f, _tp, sec in _SIM_FIELDS if sec == name})
    _check_unknown(sections["workload"], "workload", _WORKLOAD_KEYS)

    applied: list[str] = []
    values = {}
    for name, tp, section in _SIM_FIELDS:
        source = data if section is None else sections[section]
        values[name] = _take(source, _KEYPATHS[name], tp, getattr(_DEFAULTS, name), applied,
                             _DEFAULT_TEXT.get(name))
    try:
        sim = SimConfig(**values)
    except FieldError as exc:
        raise ConfigError(str(exc), _KEYPATHS[exc.field]) from None

    # Each workload key replaces its default in the fixed-timing spec, one at
    # a time, so a value that breaks a WorkloadSpec invariant is named.
    spec_types = {f.name: f.type for f in fields(WorkloadSpec)}
    workload = WorkloadSpec.fixed(sim)
    for key, name in _WORKLOAD_KEYS.items():
        default = getattr(workload, name)
        text = ("uniform" if default is None  # demand_weights: every shape equally likely
                else f"fixed({default.params[0]!r})" if isinstance(default, Distribution)
                else None)
        keypath = f"workload.{key}"
        value = _take(sections["workload"], keypath, spec_types[name], default, applied, text)
        try:
            workload = replace(workload, **{name: value})
        except ValueError as exc:
            raise ConfigError(str(exc), keypath) from None
    if workload.demand_weights is not None and len(workload.demand_weights) != len(sim.catalog):
        raise ConfigError("demand_weights length must match catalog length",
                          "workload.demand_weights")

    analysis = None
    if "analysis" in data:
        ana = _section(data, "analysis")
        _check_unknown(ana, "analysis", ("classes",))
        classes = _expect_list(ana.get("classes"), "analysis.classes")
        analysis = tuple(astuple(_record(_ClassMoments, cl, f"analysis.classes[{i}]"))
                         for i, cl in enumerate(classes))

    return ParsedConfig(sim=sim, workload=workload, analysis=analysis,
                        applied_defaults=tuple(applied))


def effective_config(parsed: ParsedConfig) -> dict:
    """The fully-resolved config as a dict in the config file schema."""
    # The priority section lists its keys in _PRIORITY_FIELDS order.
    result: dict = {"simulation": {}, "priority": dict.fromkeys(_PRIORITY_FIELDS)}
    sim = jsonable(parsed.sim)
    for name, _tp, section in _SIM_FIELDS:
        (result if section is None else result[section])[name] = sim[name]
    result["workload"] = {key: jsonable(getattr(parsed.workload, name))
                          for key, name in _WORKLOAD_KEYS.items()}
    if parsed.analysis is not None:
        result["analysis"] = {"classes": [jsonable(_ClassMoments(*m))
                                          for m in parsed.analysis]}
    return result


@contextlib.contextmanager
def _atomic_file(path: Path):
    """Open a tmp file for path; when the block ends, replace path with it.
    If anything raises, the tmp file is removed."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# A json table is encoded and written this many rows at a time, so that its
# texts are never all held at once.
_TABLE_ROWS = 1024


def _write_json_table(fh, header, rows) -> None:
    """Write json.dumps([dict(zip(header, row)) for row in rows], indent=2)
    for rows of scalars under distinct header names, _TABLE_ROWS rows at a
    time: the value texts of each column of those rows come from one call
    (value_texts) and fill a row template. json.dumps with an indent uses
    the pure-Python encoder."""
    keys = (json.dumps(name).replace("%", "%%") + ": %s" for name in header)
    template = "  {\n    " + ",\n    ".join(keys) + "\n  }"
    rows = iter(rows)
    sep = "[\n"
    while block := list(itertools.islice(rows, _TABLE_ROWS)):
        cells = zip(*map(value_texts, zip(*block)))
        fh.write(sep + ",\n".join(map(template.__mod__, cells)))
        sep = ",\n"
    fh.write("[]" if sep == "[\n" else "\n]")


def _write_table(out_dir: Path, name: str, header, rows, fmt: str) -> Path:
    """Write <name>.<fmt> in an _atomic_file block, opened with newline="":
    the header and rows as csv.writer writes them, CRLF-terminated, or
    json.dumps([dict(zip(header, row)) for row in rows], indent=2) and a
    newline (_write_json_table). rows may be an iterator; it is read once."""
    path = out_dir / f"{name}.{fmt}"
    with _atomic_file(path) as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        else:
            _write_json_table(fh, header, rows)
            fh.write("\n")
    return path


def _check_out(out_dir: str) -> None:
    """Raise OSError unless _ensure_out can make out_dir: its nearest existing
    ancestor, out_dir itself included, must be a writable directory. Creates
    nothing, so main calls it before any command reads its inputs."""
    path = Path(out_dir)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise OSError(f"cannot create output directory {out_dir}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise OSError(f"cannot write to output directory {out_dir}: {existing} is not writable")


def _ensure_out(out_dir: str) -> Path:
    """Make out_dir, which _check_out has checked, and its missing parents."""
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from None
    return path


def _echo_defaults(parsed: ParsedConfig) -> None:
    if parsed.applied_defaults:
        print(f"defaults applied ({len(parsed.applied_defaults)}): "
              + ", ".join(parsed.applied_defaults))


def _load_parsed(args: argparse.Namespace) -> ParsedConfig:
    parsed = parse_config(args.config)
    if args.seed is not None:
        try:
            parsed = replace(parsed, sim=replace(parsed.sim, seed=args.seed))
        except ValueError as exc:
            raise ConfigError(str(exc), "--seed") from None
    return parsed


def _write_report(out_dir: Path, report: SimReport, fmt: str) -> None:
    """Write report_<mode>.json, SimReport.to_json() one column at a time
    (SimReport.json_texts) and a newline, then bands_<mode>.<fmt>."""
    with _atomic_file(out_dir / f"report_{report.mode}.json") as fh:
        fh.writelines(report.json_texts())
        fh.write("\n")
    _write_table(out_dir, f"bands_{report.mode}", ("band", "mean_wait"),
                 report.band_waits.items(), fmt)


class ReportError(ValueError):
    """A report file that cannot be read back as a SimReport."""


def load_report(path) -> SimReport:
    """Read back a report written by cmd_simulate, in schema 2 or 1, with _read_json.

    Raises ReportError naming the file when it is not UTF-8 JSON, not a
    report or of another schema.
    """
    data = _read_json(path, ReportError)
    if not isinstance(data, dict):
        raise ReportError(f"{path}: top level must be an object")
    try:
        return SimReport.from_dict(data)
    except KeyError as exc:
        raise ReportError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ReportError(f"{path}: not a report: {exc}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    parsed = _load_parsed(args)
    _echo_defaults(parsed)
    sim = parsed.sim
    jobs = sample_jobs(sim, parsed.workload)
    path = _write_table(_ensure_out(args.out), "jobs", JOB_FILE_FIELDS, job_rows(jobs), "csv")
    print(f"generated {len(jobs)} jobs at rate {sim.arrival_rate:g}/s (seed {sim.seed}) "
          f"-> {path}")
    return EXIT_OK


def _comparison(native: SimReport, resultant: SimReport, beta: float) -> dict:
    """comparison.json of two runs over the same jobs, in one pass over their
    columns: row i of both reports is the same job.

    A boosted job has a technical score above beta and a positive business
    score in the resultant run. Its ranks are compared only when the native
    run ranked it too: an unstable native run may stop before the job
    arrives. Mean waits are over the boosted jobs that completed in both
    runs, added left to right from the int 0 as _summary adds them.
    """
    nat, res = native.columns, resultant.columns
    boosted = both_done = 0
    never_worse = True
    total_nat = total_res = 0
    for tp, bp, rank_res, rank_nat, status_res, status_nat, wait_res, wait_nat in zip(
            res["tp_score"], res["bp_score"], res["rank"], nat["rank"], res["status"],
            nat["status"], res["wait"], nat["wait"]):
        if tp is None or not tp > beta or bp is None or not bp > 0:
            continue
        boosted += 1
        if rank_nat is not None:
            never_worse = never_worse and rank_res <= rank_nat
        if status_nat == "completed" and status_res == "completed":
            total_nat += wait_nat
            total_res += wait_res
            both_done += 1
    mean_nat = total_nat / both_done if both_done else 0.0
    mean_res = total_res / both_done if both_done else 0.0
    return {
        "boosted_jobs": boosted,
        "rank_never_worse": never_worse,
        "mean_wait_native": mean_nat,
        "mean_wait_resultant": mean_res,
        "mean_wait_not_increased": mean_res <= mean_nat,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    parsed = _load_parsed(args)
    _echo_defaults(parsed)
    if args.jobs is not None:
        jobs = load_jobs(args.jobs)
        if not jobs:
            raise ConfigError(f"workload file {args.jobs} contains no jobs")
    else:
        jobs = sample_jobs(parsed.sim, parsed.workload)

    # The second run reuses the inputs the first prepares in the job set.
    native = run(parsed.sim, jobs, mode="native")
    resultant = run(parsed.sim, jobs, mode="resultant")
    n_jobs = len(jobs)
    del jobs  # the writes need only the reports
    comparison = _comparison(native, resultant, parsed.sim.beta)
    out = _ensure_out(args.out)
    _write_report(out, native, args.format)
    _write_report(out, resultant, args.format)
    with _atomic_file(out / "comparison.json") as fh:
        fh.write(json.dumps(comparison, sort_keys=True, indent=2) + "\n")
    print(f"simulated {n_jobs} jobs twice (native, resultant) -> {out}")
    print(f"boosted jobs: {comparison['boosted_jobs']}, "
          f"mean wait native {comparison['mean_wait_native']:.4f}s vs resultant "
          f"{comparison['mean_wait_resultant']:.4f}s")
    if native.unstable or resultant.unstable:
        print("warning: run flagged unstable; reports are partial", file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    parsed = _load_parsed(args)
    _echo_defaults(parsed)
    if parsed.analysis is None:
        raise ConfigError("analyze requires an analysis.classes section in the config")
    waits = mg1_waiting(parsed.analysis)
    errors = (None if args.report is None
              else compare_analytic(load_report(args.report), parsed.analysis))
    rows = [(i + 1, rate, es, es2, w)
            for i, ((rate, es, es2), w) in enumerate(zip(parsed.analysis, waits))]
    out = _ensure_out(args.out)
    _write_table(out, "analysis", ("class", "rate", "mean_service", "mean_service_sq",
                                   "mean_wait"), rows, args.format)
    for i, w in enumerate(waits, start=1):
        print(f"class {i}: analytic mean wait {w:.6g}")
    if errors is not None:
        _write_table(out, "analysis_vs_simulation", ("class", "relative_error"),
                     list(enumerate(errors, start=1)), args.format)
        for i, err in enumerate(errors, start=1):
            print(f"class {i}: relative error vs simulation {err:.4f}")
    return EXIT_OK


def cmd_replicate(args: argparse.Namespace) -> int:
    parsed = _load_parsed(args)
    _echo_defaults(parsed)
    rows = replication_bundle(parsed.sim, parsed.workload)
    out = _ensure_out(args.out)
    _write_table(out, "replication", ("series", "x", "value", "provenance"),
                 [(r.series, r.x, r.value, r.provenance) for r in rows], args.format)
    series = sorted({r.series for r in rows})
    print(f"wrote {len(rows)} replication rows ({', '.join(series)}) -> {out}")
    return EXIT_OK


_JOB_TABLE_HEADER = ("job_id", "arrival", "ack", "allocation", "start", "completion",
                     "wait", "rank", "tp_score", "bp_score", "resultant", "class_index",
                     "chain_position", "instance", "cost", "sls", "deadline_met",
                     "status", "retries")


# The report column of each job table column: allocation is the start column,
# and sls the resultant column.
_JOB_TABLE_COLUMNS = tuple({"allocation": "start", "sls": "resultant"}.get(name, name)
                           for name in _JOB_TABLE_HEADER)


def cmd_export(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    out = _ensure_out(args.out)
    columns = report.columns
    path = _write_table(out, f"jobs_{report.mode}", _JOB_TABLE_HEADER,
                        zip(*map(columns.__getitem__, _JOB_TABLE_COLUMNS)), args.format)
    print(f"exported {len(columns['job_id'])} jobs ({report.mode}) -> {path}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "replicate": cmd_replicate,
    "export": cmd_export,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudsched",
        description="Business-value-aware cloud task scheduling simulator")
    parser.add_argument("--print-config", action="store_true",
                        help="print the fully-resolved config as JSON and exit")
    parser.add_argument("--config", dest="root_config", metavar="PATH",
                        help="config file for --print-config")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="DIR", default=os.environ.get(OUT_DIR_ENV, "."),
                     help=f"output directory (default ${OUT_DIR_ENV} or '.')")
    tables = argparse.ArgumentParser(add_help=False, parents=[out])
    tables.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="format of the tables the command writes")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file (defaults apply for omitted keys)")
    config.add_argument("--seed", type=int, default=None, help="seed override")
    common = argparse.ArgumentParser(add_help=False, parents=[tables, config])
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("generate", parents=[out, config], help="write a synthetic workload file")
    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run paired native/resultant simulations")
    p_sim.add_argument("--jobs", metavar="PATH", default=None,
                       help="existing workload file (otherwise generated inline)")
    p_ana = sub.add_parser("analyze", parents=[common],
                           help="closed-form waiting times per class")
    p_ana.add_argument("--report", metavar="PATH", default=None,
                       help="simulation report to compare against")
    sub.add_parser("replicate", parents=[common], help="emit the replication bundle")
    p_exp = sub.add_parser("export", parents=[tables],
                           help="write a report's job table, one row per job")
    p_exp.add_argument("report", metavar="REPORT", help="report_<mode>.json to export")
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
        _check_out(args.out)
        return _COMMANDS[args.command](args)
    except (ConfigError, ParseError, InvalidJobError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientSamplesError as exc:
        print(f"report too small to compare: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsatisfiableDemandError as exc:
        print(f"unsatisfiable demand: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnstableError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNSTABLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
