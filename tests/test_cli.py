import csv
import hashlib
import io
import json
import math
import os

from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cloudsched import cli, simulator
from cloudsched.domain import BusinessProfile, Job, ResourceDemand, SimConfig
from cloudsched.simulator import JobRecord, SimReport, compare_analytic, run
from cloudsched.workload import (
    JOB_FILE_FIELDS,
    Distribution,
    WorkloadSpec,
    generate_arrivals,
    sample_jobs,
)

# Low admission odds and few retries leave some jobs stuck, so the exported
# job table has empty (None) cells next to completed rows.
CONFIG = {
    "simulation": {"num_tasks": 150, "num_vms": 40, "seed": 4, "max_retries": 2},
    "allocation_bands": [[1, 100, 0.3]],
}
MODES = ("native", "resultant")


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    parsed = cli.parse_config(config)
    jobs = sample_jobs(parsed.sim, parsed.workload, generate_arrivals(parsed.sim))
    return out, {mode: run(parsed.sim, jobs, mode=mode) for mode in MODES}


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


class TestSimulateOutputs:
    @pytest.mark.parametrize("mode", MODES)
    def test_report_file_is_compact_to_json(self, simulated, mode):
        out, reports = simulated
        text = (out / f"report_{mode}.json").read_text()
        assert text == reports[mode].to_json() + "\n"

    @pytest.mark.parametrize("mode", MODES)
    def test_report_round_trips_through_load_report(self, simulated, mode):
        out, reports = simulated
        assert cli.load_report(out / f"report_{mode}.json") == reports[mode]

    @pytest.mark.parametrize("mode", MODES)
    def test_job_table_cells(self, simulated, tmp_path, mode):
        out, reports = simulated
        assert cli.main(["export", str(out / f"report_{mode}.json"),
                         "--out", str(tmp_path)]) == cli.EXIT_OK
        with open(tmp_path / f"jobs_{mode}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert tuple(header) == cli._JOB_TABLE_HEADER
        expected = [[_cell(v) for v in row] for row in _job_rows(reports[mode])]
        assert rows == expected
        statuses = {r.status for r in reports[mode].jobs}
        assert {"completed", "stuck"} <= statuses
        assert any(cell == "" for row in rows for cell in row)


class TestTableText:
    def test_csv_cells(self, tmp_path):
        path = cli._write_table(tmp_path, "t", ("a", "b", "c", "d", "e"),
                                [(None, 0.1 + 0.2, 3, "x,y", True)], "csv")
        with open(path, newline="") as fh:
            assert fh.read() == 'a,b,c,d,e\r\n,0.30000000000000004,3,"x,y",True\r\n'

    @pytest.mark.parametrize("n", [0, 1, 1024, 1025, 2049])
    def test_json_blocks_equal_one_json_dumps(self, tmp_path, n):
        # An empty table, and tables of one to 2049 rows of edge cells.
        header = ("a", "b", "c", "d")
        cells = (None, 0.1 + 0.2, math.nan, "x\ny", -0.0, True, 7, "é")
        rows = [tuple(cells[(i + j) % len(cells)] for j in range(len(header)))
                for i in range(n)]
        path = cli._write_table(tmp_path, "t", header, iter(rows), "json")
        expected = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
        assert path.read_text() == expected


# A 2500-job run with stuck jobs (None cells) throughout.
MULTI_BLOCK_CONFIG = {
    "simulation": {"num_tasks": 2500, "num_vms": 40, "seed": 4, "max_retries": 2},
    "allocation_bands": [[1, 100, 0.3]],
}
# SHA-256 of every file `simulate` writes for MULTI_BLOCK_CONFIG: the bands
# and comparison as written before reports were streamed, the reports in
# schema 2. A change to any of them is a change in output bytes and must be
# recorded in CHANGES.md.
PINNED_OUTPUT_SHA256 = {
    "bands_native.csv": "622f95214c75f6bf872c30002b37ac1a66897673087354334200b1ebf651c223",
    "bands_resultant.csv": "b1710167a5f72712a7f4c4bb8c92054fcf05e9138427e44ab4af292daf218017",
    "comparison.json": "431040fd8ca88be27b21e29e2188429f798fd13b3ccaa4cb1b2a62e12b963742",
    "report_native.json": "ea14d337b083f8bc76918572e69a339e26fe69b0b20af07f95ebdd023afb13f1",
    "report_resultant.json": "753daf67f5e1063bce12d547d508e14e801625440d42f74ab80abdc7560e6931",
}
# The same for `simulate --format json`.
PINNED_JSON_OUTPUT_SHA256 = {
    "bands_native.json": "0a2121d9e04fb7717c657958fdb7fb9a2664efa61b6b9308c33a9dd24d84b766",
    "bands_resultant.json": "0310d9c669905e5a75b23f202996ebac38a6dc32550f4fe075e517de27ff287a",
    "comparison.json": "431040fd8ca88be27b21e29e2188429f798fd13b3ccaa4cb1b2a62e12b963742",
    "report_native.json": "ea14d337b083f8bc76918572e69a339e26fe69b0b20af07f95ebdd023afb13f1",
    "report_resultant.json": "753daf67f5e1063bce12d547d508e14e801625440d42f74ab80abdc7560e6931",
}
# SHA-256 of the job tables that `export` writes from those reports, in each
# format: the bytes `simulate` wrote as jobs_<mode>.<fmt> before the job
# tables moved to `export`.
PINNED_EXPORT_SHA256 = {
    "jobs_native.csv": "420dfc6b404bea3a471d3ef46ab56c4c52f7b409ac228a7441cc9b84c0dfd06e",
    "jobs_resultant.csv": "7cf4dd6e8a7edc6d0da6c051794e806500c3d2b49ff420b989ad9274dd019483",
    "jobs_native.json": "864272494d0320aa0c81f004c0253f961844be0b84a5d4b8f02d7e2282445dee",
    "jobs_resultant.json": "7ba47cffc548f624718cc49aac839da9d60cb73b646d655b1f54f42c88b6b344",
}


@pytest.fixture(scope="module")
def multi_block(tmp_path_factory):
    out = tmp_path_factory.mktemp("multi_block")
    config = out / "config.json"
    config.write_text(json.dumps(MULTI_BLOCK_CONFIG))
    assert cli.main(["simulate", "--config", str(config), "--out", str(out / "o")]) == 0
    return out / "o"


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def _export_digests(reports: Path, out: Path, formats=("csv", "json")) -> dict:
    """The digests of the job tables that `export` writes into out, in each
    format, from the two reports in the directory reports."""
    for mode in MODES:
        for fmt in formats:
            assert cli.main(["export", str(reports / f"report_{mode}.json"), "--out", str(out),
                             "--format", fmt]) == cli.EXIT_OK
    return _digests(out)


class TestMultiBlockBytes:
    def test_every_output_file_hash_is_pinned(self, multi_block):
        assert _digests(multi_block) == PINNED_OUTPUT_SHA256

    def test_every_json_format_output_file_hash_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", _config_file(tmp_path, MULTI_BLOCK_CONFIG),
                       "--out", str(out), "--format", "json"])
        assert rc == cli.EXIT_OK
        assert _digests(out) == PINNED_JSON_OUTPUT_SHA256

    def test_exported_job_table_hashes_are_pinned(self, multi_block, tmp_path, capsys):
        assert _export_digests(multi_block, tmp_path) == PINNED_EXPORT_SHA256


# Every workload key set, next to non-default simulation timing that the
# workload section overrides.
ALL_WORKLOAD_CONFIG = {
    "simulation": {"num_tasks": 300, "seed": 3, "due_time": 900.0, "exec_time": 500.0,
                   "prep_time": 2.5},
    "workload": {
        "due": {"kind": "uniform", "params": [660.0, 3600.0]},
        "exec": {"kind": "exponential", "params": [450.0]},
        "prep": {"kind": "uniform", "params": [0.0, 10.0]},
        "demand_weights": [1.0, 2.0, 3.0, 0.5, 1.5],
        "order_range": [10.0, 500.0],
        "relationship_range": [5.0, 50.0],
    },
}
# SHA-256 of `--print-config` stdout for ALL_WORKLOAD_CONFIG, as printed once
# mu_base was deleted, and of the jobs.csv that `generate --seed 11` writes for
# it, as written before WorkloadSpec lost its copies of the SimConfig values.
PINNED_PRINT_CONFIG_SHA256 = "57af322c1c0b5321f38d2ae230d478e6bfa72aed4e08d8d61223750c778eb7db"
PINNED_GENERATED_JOBS_SHA256 = "38db1d183c9e5eb498ac56ca6086290a6ce765c2979946db6f38794badb50cd9"


class TestWorkloadBytes:
    def test_print_config_hash_is_pinned(self, tmp_path, capsys):
        rc, out, _err = _print_config(tmp_path, capsys, ALL_WORKLOAD_CONFIG)
        assert rc == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_PRINT_CONFIG_SHA256

    def test_generated_jobs_hash_is_pinned(self, tmp_path, capsys):
        path = _config_file(tmp_path, ALL_WORKLOAD_CONFIG)
        rc = cli.main(["generate", "--config", path, "--seed", "11", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        assert "(seed 11)" in capsys.readouterr().out
        digest = hashlib.sha256((tmp_path / "jobs.csv").read_bytes()).hexdigest()
        assert digest == PINNED_GENERATED_JOBS_SHA256


JOB_FIELDS = [f.name for f in fields(JobRecord)]
_FLOATS = st.floats() | st.sampled_from((0.0, -0.0, 1.0, math.nan, math.inf, -math.inf))
_TEXTS = st.text(st.sampled_from('ab,"\n\r 1é€')
                 | st.characters(exclude_categories=("Cc", "Cs")), max_size=6)
_CELLS = {
    "float": _FLOATS,
    "int": st.integers(),
    "str": _TEXTS,
    "bool": st.booleans(),
    "mixed": st.one_of(_FLOATS, st.integers(), _TEXTS, st.booleans()),
}
REPORT_LENGTHS = (0, 1, 1023, 1024, 1025)
def _report(rows) -> SimReport:
    rows = list(rows)
    return SimReport(mode="native", seed=5,
                     columns={name: [row[name] for row in rows] for name in JOB_FIELDS},
                     band_waits={"1-100": 0.5}, class_sls={"1": -0.0},
                     deadline_hit_rate=math.nan, config={"seed": 5, "beta": 60.0})


def _report_dict(report: SimReport) -> dict:
    """The report's fields in schema 2: "schema": 2, and its columns under "jobs"."""
    d = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "columns"}
    d.update(schema=2, jobs=report.columns)
    return d


def _typed(columns: dict) -> dict:
    """Each column's values as (type, repr): tells -0.0 from 0.0 and 1 from 1.0
    and True, with NaN equal to NaN."""
    return {name: [(type(v), repr(v)) for v in column] for name, column in columns.items()}


def _job_rows(report: SimReport) -> list:
    """The job table's rows, one per job record, in _JOB_TABLE_HEADER order:
    allocation is the record's start, and sls its resultant."""
    aliases = {"allocation": "start", "sls": "resultant"}
    return [[getattr(r, aliases.get(name, name)) for name in cli._JOB_TABLE_HEADER]
            for r in report.jobs]


# Six rows, repeated: zeros of both signs in one float column and block, 1,
# 1.0 and True in one column and across the int, float and bool columns,
# non-finite floats, and ids that mix ints with strings csv must quote.
EDGE_COLUMNS = {
    "job_id": (1, "a,b", 'say "hi"', "two\nlines", "é€", 2),
    "arrival": (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf),
    "wait": (-0.0, 0.0, None, 0.0, 1.0, -0.0),
    "rank": (1, 1.0, True, None, 0, False),
    "retries": (1, 2, 1, 0, None, 3),
    "deadline_met": (True, False, None, True, True, False),
    "status": ("completed", "stuck", "a\rb", "completed", "", "x"),
    "reason": (None,) * 6,
}


def _edge_report(n: int) -> SimReport:
    filler = (0.5, None, 2.0, 0.5, -0.0, 3.25)
    return _report({name: EDGE_COLUMNS.get(name, filler)[i % 6] for name in JOB_FIELDS}
                   for i in range(n))


def _allowed_kind(kind: str, annotation: str) -> bool:
    """Whether a report file's JobRecord field of this annotation may hold a
    value of this kind: a float field also holds ints, and only a bool field
    holds bools."""
    parts = annotation.split(" | ")
    return kind in parts or (kind == "int" and "float" in parts)


def _allowed(value, annotation: str) -> bool:
    return _allowed_kind("None" if value is None else type(value).__name__, annotation)


@st.composite
def reports(draw, typed=False):
    """Reports whose each column holds None and values of one _CELLS kind;
    with typed, only the kinds and None that its JobRecord field allows."""
    cells = {}
    for f in fields(JobRecord):
        kinds = [k for k in sorted(_CELLS) if not typed or _allowed_kind(k, f.type)]
        cells[f.name] = _CELLS[draw(st.sampled_from(kinds))]
        if not typed or _allowed_kind("None", f.type):
            cells[f.name] = st.none() | cells[f.name]
    pool = draw(st.lists(st.fixed_dictionaries(cells), min_size=1, max_size=6))
    n = draw(st.sampled_from(REPORT_LENGTHS))
    return _report(pool[i % len(pool)] for i in range(n))


def _assert_same_text(got: str, want: str) -> None:
    """Equality with a short message: pytest's diff of two long texts is slow."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at {at}: {got[at - 80:at + 80]!r} "
                    f"!= {want[at - 80:at + 80]!r}")


def _assert_export_equals_modules(report_path: Path, report: SimReport, out: Path) -> None:
    """`export` of report_path writes report's job table as csv.writer writes
    its rows, and as json.dumps(indent=2) of one object per row and a newline."""
    rows = _job_rows(report)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cli._JOB_TABLE_HEADER)
    writer.writerows(rows)
    expected = {"csv": buf.getvalue(),
                "json": json.dumps([dict(zip(cli._JOB_TABLE_HEADER, row)) for row in rows],
                                   indent=2) + "\n"}
    for fmt, text in expected.items():
        argv = ["export", str(report_path), "--out", str(out), "--format", fmt]
        assert cli.main(argv) == cli.EXIT_OK
        with open(out / f"jobs_{report.mode}.{fmt}", newline="") as fh:
            _assert_same_text(fh.read(), text)


def _with_examples(test):
    for n in REPORT_LENGTHS:
        test = example(report=_edge_report(n))(test)
    return test


class TestStreamedWriter:
    """The report writer against json.dumps, and export's job table against
    csv.writer and json.dumps, on the same values."""

    @_with_examples
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(report=reports())
    def test_report_and_job_table_equal_json_and_csv_modules(self, tmp_path, capsys, report):
        expected_json = json.dumps(_report_dict(report), sort_keys=True, separators=(",", ":"))
        _assert_same_text(report.to_json(), expected_json)
        for fmt in ("csv", "json"):
            cli._write_report(tmp_path, report, fmt)
            path = tmp_path / "report_native.json"
            _assert_same_text(path.read_text(), expected_json + "\n")
        assert _typed(json.loads(path.read_text())["jobs"]) == _typed(report.columns)
        wrong = [f.name for f in fields(JobRecord)
                 if not all(_allowed(v, f.type) for v in report.columns[f.name])]
        if wrong:  # load_report names the first column that holds a wrong type
            with pytest.raises(cli.ReportError, match=f"not a report: column '{wrong[0]}' holds"):
                cli.load_report(path)
            capsys.readouterr()
            assert cli.main(["export", str(path), "--out", str(tmp_path / "export")]) == (
                cli.EXIT_CONFIG)
            assert f"report error: {path}: not a report: column '{wrong[0]}'" in (
                capsys.readouterr().err)
        else:
            assert _typed(cli.load_report(path).columns) == _typed(report.columns)
            _assert_export_equals_modules(path, report, tmp_path / "export")

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(report=reports(typed=True))
    def test_report_of_its_field_types_reads_back(self, tmp_path, report):
        cli._write_report(tmp_path, report, "csv")
        loaded = cli.load_report(tmp_path / "report_native.json")
        assert _typed(loaded.columns) == _typed(report.columns)
        _assert_export_equals_modules(tmp_path / "report_native.json", report,
                                      tmp_path / "export")

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_failure_in_job_table_leaves_old_files(self, simulated, tmp_path, monkeypatch,
                                                   capsys, fmt):
        # Reading the table's status column fails at its last row: after the
        # other rows of a csv table are written, before a json table is.
        out, _reports = simulated
        argv = ["export", str(out / "report_native.json"), "--out", str(tmp_path),
                "--format", fmt]
        assert cli.main(argv) == cli.EXIT_OK
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        load_report = cli.load_report

        class FailingColumn(list):
            def __iter__(self):
                yield from self[:-1]
                raise RuntimeError("table failed")

        def failing_load(path):
            report = load_report(path)
            report.columns["status"] = FailingColumn(report.columns["status"])
            return report

        monkeypatch.setattr(cli, "load_report", failing_load)
        with pytest.raises(RuntimeError, match="table failed"):
            cli.main(argv)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_failure_mid_report_leaves_old_files(self, tmp_path, monkeypatch, fmt):
        cli._write_report(tmp_path, _edge_report(3), fmt)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        report = _edge_report(5)
        encode = simulator._encode

        def failing(value):
            if value is report.columns["status"]:
                raise RuntimeError("encoder failed")
            return encode(value)

        monkeypatch.setattr(simulator, "_encode", failing)
        with pytest.raises(RuntimeError, match="encoder failed"):
            cli._write_report(tmp_path, report, fmt)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _config_file(tmp_path, config) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def _print_config(tmp_path, capsys, config):
    """Run --print-config on a config; returns (exit code, stdout, stderr)."""
    rc = cli.main(["--print-config", "--config", _config_file(tmp_path, config)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# Keys the config file reads from the "priority" section and from the top
# level; every other SimConfig field is read from "simulation".
PRIORITY_KEYS = ("beta", "w_urgency", "w_demand", "order_norm", "relationship_norm",
                 "business_cap", "blank_time")
TOP_LEVEL_KEYS = ("catalog", "allocation_bands")

CATALOG_ENTRY = {"name": "x1", "cores": 2, "ecus": 3.0, "ram": 4.0, "arch_bits": 64,
                 "disk": 100.0, "cost": 0.25}

# A non-default value for every SimConfig field, plus the other keys that must
# change with it to keep the config valid.
FIELD_VALUES = {
    "num_tasks": (10, {}),
    "num_vms": (7, {}),
    "arrival_rate": (2.0, {"class_rates": [1.0, 1.0]}),
    "class_rates": ([0.25, 0.75], {}),
    "beta": (55.0, {}),
    "blank_time": (3.0, {}),
    "w_urgency": (0.6, {"w_demand": 0.4}),
    "w_demand": (0.4, {"w_urgency": 0.6}),
    "order_norm": (0.02, {}),
    "relationship_norm": (0.5, {}),
    "business_cap": (12.0, {}),
    "seed": (99, {}),
    "catalog": ([CATALOG_ENTRY], {}),
    "allocation_bands": ([[1, 50, 1.0], [51, 100, 0.5]], {}),
    "retry_interval": (2.5, {}),
    "due_time": (800.0, {}),
    "exec_time": (600.0, {}),
    "prep_time": (1.0, {}),
    "epoch_length": (30.0, {}),
    "max_retries": (17, {}),
    "max_queue_length": (23, {}),
}


def _section_of(name: str) -> str | None:
    if name in TOP_LEVEL_KEYS:
        return None
    return "priority" if name in PRIORITY_KEYS else "simulation"


def _config_setting(settings: dict) -> dict:
    config: dict = {}
    for name, value in settings.items():
        section = _section_of(name)
        if section is None:
            config[name] = value
        else:
            config.setdefault(section, {})[name] = value
    return config


EMPTY_CONFIG_DEFAULTS = {
    "simulation.num_tasks=2000",
    "simulation.num_vms=2500",
    "simulation.arrival_rate=1.0",
    "simulation.class_rates=(" + ", ".join(["0.16666666666666666"] * 6) + ")",
    "simulation.seed=1",
    "simulation.retry_interval=1.0",
    "simulation.due_time=700.0",
    "simulation.exec_time=650.0",
    "simulation.prep_time=5.0",
    "simulation.epoch_length=60.0",
    "simulation.max_retries=1000000",
    "simulation.max_queue_length=1000000",
    "priority.beta=60.0",
    "priority.w_urgency=0.7",
    "priority.w_demand=0.3",
    "priority.order_norm=0.01",
    "priority.relationship_norm=0.0",
    "priority.business_cap=10.0",
    "priority.blank_time=0.0",
    "catalog=<default 5-entry catalog>",
    "allocation_bands=<default 10-band table>",
    "workload.due=fixed(700.0)",
    "workload.exec=fixed(650.0)",
    "workload.prep=fixed(5.0)",
    "workload.demand_weights=uniform",
    "workload.order_range=(0.0, 1000.0)",
    "workload.relationship_range=(0.0, 100.0)",
}


class TestConfigSchema:
    @pytest.mark.parametrize("config,keypath", [
        ({"bogus": 1}, "config.bogus"),
        ({"simulation": {"bogus": 1}}, "simulation.bogus"),
        ({"priority": {"bogus": 1}}, "priority.bogus"),
        ({"catalog": [dict(CATALOG_ENTRY, bogus=1)]}, "catalog[0].bogus"),
        ({"workload": {"due": {"kind": "fixed", "params": [700.0], "bogus": 1}}},
         "workload.due.bogus"),
        ({"simulation": {"mu_base": 1.0}}, "simulation.mu_base"),
    ])
    def test_unknown_key_names_its_path(self, tmp_path, capsys, config, keypath):
        rc, _out, err = _print_config(tmp_path, capsys, config)
        assert rc == cli.EXIT_CONFIG
        assert keypath in err

    @pytest.mark.parametrize("config,keypath", [
        ({"simulation": {"arrival_rate": True}}, "simulation.arrival_rate"),
        ({"priority": {"beta": False}}, "priority.beta"),
        ({"simulation": {"num_tasks": 1.5}}, "simulation.num_tasks"),
        ({"simulation": {"seed": 2.0}}, "simulation.seed"),
        ({"priority": {"blank_time": math.nan}}, "priority.blank_time"),
        ({"simulation": {"retry_interval": math.inf}}, "simulation.retry_interval"),
        ({"catalog": [dict(CATALOG_ENTRY, ram=-math.inf)]}, "catalog[0].ram"),
        ({"workload": {"due": {"kind": "uniform", "params": [660.0, math.inf]}}},
         "workload.due.params[1]"),
        ({"analysis": {"classes": [{"rate": math.nan, "mean_service": 1.0,
                                    "mean_service_sq": 2.0}]}}, "analysis.classes[0].rate"),
        ({"simulation": {"arrival_rate": 10 ** 400}}, "simulation.arrival_rate"),
    ])
    def test_wrong_number_type_is_rejected(self, tmp_path, capsys, config, keypath):
        rc, _out, err = _print_config(tmp_path, capsys, config)
        assert rc == cli.EXIT_CONFIG
        assert keypath in err

    def test_empty_config_applies_every_default(self):
        applied = cli.parse_config(None).applied_defaults
        assert len(applied) == len(set(applied))
        assert set(applied) == EMPTY_CONFIG_DEFAULTS

    @pytest.mark.parametrize("config", [
        {},
        {"workload": {"due": {"kind": "uniform", "params": [660.0, 3600.0]},
                      "demand_weights": [1.0, 2.0, 3.0, 4.0, 5.0]},
         "analysis": {"classes": [{"rate": 0.2, "mean_service": 1.0,
                                   "mean_service_sq": 2.0}]}},
    ])
    def test_printed_config_reads_back_unchanged(self, tmp_path, capsys, config):
        rc, out, _err = _print_config(tmp_path, capsys, config)
        assert rc == cli.EXIT_OK
        before = cli.parse_config(_config_file(tmp_path, config))
        again = tmp_path / "printed.json"
        again.write_text(out)
        after = cli.parse_config(again)
        assert after.applied_defaults == ()
        assert (after.sim, after.workload, after.analysis) == (
            before.sim, before.workload, before.analysis)

    def test_workload_timing_defaults_follow_simulation(self, tmp_path):
        config = {"simulation": {"due_time": 800.0, "exec_time": 600.0, "prep_time": 2.0}}
        parsed = cli.parse_config(_config_file(tmp_path, config))
        wl = parsed.workload
        assert (wl.due_dist, wl.exec_dist, wl.prep_dist) == (
            Distribution("fixed", (800.0,)), Distribution("fixed", (600.0,)),
            Distribution("fixed", (2.0,)))
        assert {"workload.due=fixed(800.0)", "workload.exec=fixed(600.0)",
                "workload.prep=fixed(2.0)"} <= set(parsed.applied_defaults)

    @pytest.mark.parametrize("name", sorted(FIELD_VALUES))
    def test_each_sim_field_is_settable_from_its_section(self, tmp_path, name):
        value, companions = FIELD_VALUES[name]
        parsed = cli.parse_config(_config_file(tmp_path,
                                               _config_setting({name: value, **companions})))
        assert getattr(parsed.sim, name) != getattr(SimConfig(), name)
        section = _section_of(name)
        printed = cli.effective_config(parsed)
        assert (printed[name] if section is None else printed[section][name]) == value
        path = name if section is None else f"{section}.{name}"
        assert not any(a.startswith(f"{path}=") for a in parsed.applied_defaults)

    def test_every_sim_field_has_a_test_value(self):
        assert set(FIELD_VALUES) == {f.name for f in fields(SimConfig)}

    @pytest.mark.parametrize("weights,message", [
        ([0, 0, 0, 0, 0], "demand_weights must be non-negative with a positive sum"),
        ([1, -1, 1, 1, 1], "demand_weights must be non-negative with a positive sum"),
        ([1.0, 2.0], "demand_weights length must match catalog length"),
    ], ids=["zero-sum", "negative", "wrong-length"])
    @pytest.mark.parametrize("command", ["generate", "simulate"])
    def test_bad_demand_weights_exit_2_naming_the_key(self, tmp_path, capsys, weights,
                                                      message, command):
        path = _config_file(tmp_path, {"simulation": {"num_tasks": 20},
                                       "workload": {"demand_weights": weights}})
        rc = cli.main([command, "--config", path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert f"workload.demand_weights: {message}" in capsys.readouterr().err


class TestCatalogEntries:
    @pytest.mark.parametrize("key,value", [("cores", 2.7), ("ecus", "3"), ("arch_bits", True),
                                           ("name", 5)])
    def test_entry_fields_use_the_field_converters(self, tmp_path, capsys, key, value):
        rc, _out, err = _print_config(tmp_path, capsys,
                                      {"catalog": [dict(CATALOG_ENTRY, **{key: value})]})
        assert rc == cli.EXIT_CONFIG
        assert f"catalog[0].{key}" in err

    def test_missing_entry_key_names_the_entry(self, tmp_path, capsys):
        entry = dict(CATALOG_ENTRY)
        del entry["cost"]
        rc, _out, err = _print_config(tmp_path, capsys, {"catalog": [CATALOG_ENTRY, entry]})
        assert rc == cli.EXIT_CONFIG
        assert "catalog[1]" in err and "'cost'" in err


class TestNegativeSeed:
    def test_config_seed_exits_2_naming_seed(self, tmp_path, capsys):
        path = _config_file(tmp_path, {"simulation": {"num_tasks": 20, "seed": -1}})
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_seed_override_exits_2_naming_seed(self, tmp_path, capsys):
        path = _config_file(tmp_path, {"simulation": {"num_tasks": 20}})
        rc = cli.main(["simulate", "--config", path, "--seed", "-1",
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "--seed: seed must be >= 0" in capsys.readouterr().err


JOB_FILE_HEADER = "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"


class TestSimulateJobFile:
    @pytest.mark.parametrize("rows,message", [
        (["0,0.0,700,650,5,1,1.7,160,100,5", "1,nan,700,650,5,1,1.7,160,100,5"],
         "record 2: arrival_time must be finite"),
        (["0,0.0,700,650,5,1,1.7,160,100,5", "0,1.0,700,650,5,1,1.7,160,100,5"],
         "record 2: duplicate job id 0"),
        # A processor count that no float can hold.
        (["0,0.0,700,650,5,1,1.7,160,100,5", f"1,0.0,700,650,5,{'9' * 400},1.7,160,100,5"],
         "record 2: field 'pn': integer too large for a float"),
    ])
    def test_bad_job_file_exits_2(self, tmp_path, capsys, rows, message):
        jobs = tmp_path / "jobs.csv"
        jobs.write_text(JOB_FILE_HEADER + "\n".join(rows) + "\n")
        rc = cli.main(["simulate", "--jobs", str(jobs), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_unsatisfiable_demand_exits_2_naming_the_job(self, tmp_path, capsys):
        # No catalog entry has 100 processors; the run stops at the job's
        # first allocation attempt.
        jobs = tmp_path / "jobs.csv"
        jobs.write_text(JOB_FILE_HEADER + "0,0.0,700,650,5,1,1.7,160,100,5\n"
                        "big,1.0,700,650,5,100,1.7,160,100,5\n")
        rc = cli.main(["simulate", "--jobs", str(jobs), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unsatisfiable demand: job 'big'" in err
        assert "Traceback" not in err


class TestAnalyzeReport:
    def test_too_few_samples_exits_2_naming_the_class(self, tmp_path, capsys):
        # 2000 jobs over 2 classes: no class reaches the 10k completed jobs
        # that compare_analytic asks for.
        config = {"simulation": {"num_tasks": 2000, "class_rates": [0.5, 0.5], "seed": 3},
                  "analysis": {"classes": [
                      {"rate": 0.2, "mean_service": 1.0, "mean_service_sq": 2.0},
                      {"rate": 0.2, "mean_service": 1.0, "mean_service_sq": 2.0}]}}
        path = _config_file(tmp_path, config)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        report = cli.load_report(out / "report_native.json")
        first = sum(1 for r in report.jobs if r.status == "completed" and r.class_index == 1)
        capsys.readouterr()
        rc = cli.main(["analyze", "--config", path, "--out", str(out),
                       "--report", str(out / "report_native.json")])
        assert rc == cli.EXIT_CONFIG
        assert f"class 1 has {first} completed jobs, need 10000" in capsys.readouterr().err


ANALYSIS_CONFIG = {"analysis": {"classes": [
    {"rate": 0.2, "mean_service": 1.0, "mean_service_sq": 2.0}]}}


class TestBadReportFile:
    def _analyze(self, tmp_path, capsys, report_text: str):
        report = tmp_path / "report.json"
        report.write_text(report_text)
        rc = cli.main(["analyze", "--config", _config_file(tmp_path, ANALYSIS_CONFIG),
                       "--out", str(tmp_path / "out"), "--report", str(report)])
        return rc, capsys.readouterr().err, str(report)

    def test_truncated_report_exits_2_naming_the_file(self, simulated, tmp_path, capsys):
        out, _reports = simulated
        text = (out / "report_native.json").read_text()
        rc, err, path = self._analyze(tmp_path, capsys, text[:len(text) // 2])
        assert rc == cli.EXIT_CONFIG
        assert f"report error: {path}: not valid JSON" in err

    def test_report_without_mode_exits_2_naming_the_key(self, simulated, tmp_path, capsys):
        out, _reports = simulated
        data = json.loads((out / "report_native.json").read_text())
        del data["mode"]
        rc, err, path = self._analyze(tmp_path, capsys, json.dumps(data))
        assert rc == cli.EXIT_CONFIG
        assert f"report error: {path}: missing key 'mode'" in err

    def test_band_waits_not_a_mapping_exits_2_naming_the_file(self, simulated, tmp_path,
                                                              capsys):
        out, _reports = simulated
        data = json.loads((out / "report_native.json").read_text())
        data["band_waits"] = "ab"
        rc, err, path = self._analyze(tmp_path, capsys, json.dumps(data))
        assert rc == cli.EXIT_CONFIG
        assert f"report error: {path}: not a report" in err

    @pytest.mark.parametrize("column, value", [("wait", "x"), ("wait", True),
                                               ("retries", 1.5), ("status", None)])
    def test_value_of_a_wrong_type_exits_2_naming_the_column(self, simulated, tmp_path,
                                                             capsys, column, value):
        out, _reports = simulated
        data = json.loads((out / "report_native.json").read_text())
        data["jobs"][column] = [value] * len(data["jobs"][column])
        rc, err, path = self._analyze(tmp_path, capsys, json.dumps(data))
        assert rc == cli.EXIT_CONFIG
        assert f"report error: {path}: not a report: column {column!r} holds {value!r}" in err

    def test_int_reads_back_in_a_float_column(self, simulated, tmp_path):
        out, _reports = simulated
        data = json.loads((out / "report_native.json").read_text())
        data["jobs"]["wait"] = [None if w is None else round(w) for w in data["jobs"]["wait"]]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert cli.load_report(path).columns["wait"] == data["jobs"]["wait"]

    def test_export_of_a_truncated_report_exits_2(self, simulated, tmp_path, capsys):
        out, _reports = simulated
        report = tmp_path / "report.json"
        report.write_text((out / "report_native.json").read_text()[:1000])
        rc = cli.main(["export", str(report), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert f"report error: {report}: not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_export_of_a_missing_report_exits_3(self, tmp_path, capsys):
        rc = cli.main(["export", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert rc == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_unknown_mode_exits_2_naming_it(self, simulated, tmp_path, capsys):
        out, _reports = simulated
        data = json.loads((out / "report_native.json").read_text())
        data["mode"] = "../x"
        rc, err, path = self._analyze(tmp_path, capsys, json.dumps(data))
        assert rc == cli.EXIT_CONFIG
        assert f"report error: {path}: not a report: unknown mode '../x'" in err

    def test_unknown_schema_exits_2_naming_it(self, simulated, tmp_path, capsys):
        out, _reports = simulated
        data = json.loads((out / "report_native.json").read_text())
        data["schema"] = 3
        rc, err, path = self._analyze(tmp_path, capsys, json.dumps(data))
        assert rc == cli.EXIT_CONFIG
        assert f"report error: {path}: not a report: unknown report schema 3" in err


# tests/data/report_v1.json is the schema 1 report of V1_CONFIG's resultant
# run over _v1_jobs(), as SimReport.to_json() wrote it before schema 2, with
# one object per job and allocation, sls and mu_base in it.
V1_REPORT = Path(__file__).parent / "data" / "report_v1.json"
V1_CONFIG = SimConfig(num_tasks=12, num_vms=1, seed=7, max_retries=3, max_queue_length=2,
                      allocation_bands=((1, 100, 0.5),))


def _v1_jobs() -> list:
    """Twelve jobs for one VM: ids that mix ints with strings, an arrival of
    -0.0, two rejected jobs with a NaN and an inf arrival, low admission odds
    with few retries (a stuck job) and a burst that overflows the queue
    (pending jobs)."""
    arrivals = [-0.0, 10.0, math.nan, 20.0, 30.0, 40.0, math.inf, 50.0, 50.0, 50.0, 50.0, 90.0]
    ids = [0, "a,b", 2, 'q"x', 4, "é", 6, 7, "z z", 9, 10, "last"]
    return [Job(job_id, arrival, 30.0 + 7 * i, 2.0 + i % 4, 0.5 * (i % 3),
                ResourceDemand(1 + i % 2, 1.0 + 0.25 * i, 10.0 * i),
                BusinessProfile(100.0 * i, 5.0 * (i % 5)))
            for i, (job_id, arrival) in enumerate(zip(ids, arrivals))]


class TestSchemaOne:
    def test_v1_report_loads_to_the_columns_of_a_new_run(self):
        old = cli.load_report(V1_REPORT)
        new = run(V1_CONFIG, _v1_jobs(), mode="resultant")
        assert {"completed", "rejected", "stuck", "pending"} == set(new.columns["status"])
        assert _typed(old.columns) == _typed(new.columns)
        rows = json.loads(V1_REPORT.read_text())["jobs"]
        assert [row["allocation"] for row in rows] == old.columns["start"]
        assert [row["sls"] for row in rows] == old.columns["resultant"]
        assert old.config.pop("mu_base") == 1.0
        assert replace(old, columns=new.columns) == new

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_v1_report_exports_as_a_new_run_does(self, tmp_path, capsys, fmt):
        new = tmp_path / "new"
        new.mkdir()
        cli._write_report(new, run(V1_CONFIG, _v1_jobs(), mode="resultant"), fmt)
        tables = []
        for report in (V1_REPORT, new / "report_resultant.json"):
            out = tmp_path / f"export_{len(tables)}"
            assert cli.main(["export", str(report), "--out", str(out),
                             "--format", fmt]) == cli.EXIT_OK
            tables.append((out / f"jobs_resultant.{fmt}").read_bytes())
        assert tables[0] == tables[1]

    def test_v1_report_with_a_stray_job_key_is_not_a_report(self, tmp_path):
        data = json.loads(V1_REPORT.read_text())
        data["jobs"][0]["bogus"] = 1
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        with pytest.raises(cli.ReportError, match="not schema 1 fields"):
            cli.load_report(path)


# A generated workload whose run has every job status: jobs with a negative
# prep time are rejected, low admission odds with few retries leave jobs
# stuck, and the queue overflows, so the run stops unstable with jobs pending
# in the queue and jobs yet to arrive.
ALL_STATUS_CONFIG = {
    "simulation": {"num_tasks": 400, "num_vms": 7, "seed": 4, "max_retries": 3,
                   "max_queue_length": 60},
    "allocation_bands": [[1, 30, 0.6], [31, 100, 0.3]],
    "workload": {"prep": {"kind": "uniform", "params": [-2.0, 5.0]},
                 "due": {"kind": "uniform", "params": [30.0, 300.0]},
                 "exec": {"kind": "exponential", "params": [20.0]}},
}
# The same odds for a job file whose ids mix ints with strings (a job file
# holds valid jobs only, so none is rejected).
MIXED_ID_CONFIG = {
    "simulation": {"num_vms": 8, "max_retries": 3, "max_queue_length": 100},
    "allocation_bands": [[1, 30, 0.6], [31, 100, 0.3]],
}


def _write_mixed_id_jobs(path) -> None:
    """300 short jobs: every third id an int, the others strings, some of which
    csv must quote and some of which read back as ints ("2", "-4")."""
    names = ["b", "a,1", 'q"x', "10", "2", "-4", "é", "z z"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(JOB_FILE_FIELDS)
        for i in range(300):
            job_id = 1000 - i if i % 3 == 0 else names[i % 8] + ("" if i < 8 else f"-{i}")
            writer.writerow([job_id, i * 0.7, 60.0 + i * 37 % 200, 5.0 + i * 53 % 40,
                             float(i % 6), 1 + i % 2, 1.0 + i % 5 * 0.5, float(i * 13 % 160),
                             float(i * 71 % 1000), float(i * 7 % 100)])


# SHA-256 of every file `simulate` writes for each scenario and format: the
# bands and comparison as computed before the reports held their job records
# as columns, the reports in schema 2. A change to any of them is a change in
# output bytes and must be recorded in CHANGES.md.
PINNED_SCENARIO_SHA256 = {
    ("generated", "csv"): {
        "bands_native.csv": "ca09f749054b07bd9d5ffcd8d6883a302e2300d4f99336ea9fc8bd132a29c8f2",
        "bands_resultant.csv": "93f27a2d871cad5843fffa731313690e6092e667751b3092889cdc13fc6dc221",
        "comparison.json": "5e82fd8fcac764f982341790842b81b8813e562a5e251060a2fe2b63f2178259",
        "report_native.json": "7c8bc9a79b0bee6ab06b39103051c013d505a80d71b60bb4cb5134a622a556fa",
        "report_resultant.json": "f49ffa8cde94f62ab5de348defe89affc53ce852dd716423a8902a5d1ed97b98",
    },
    ("generated", "json"): {
        "bands_native.json": "00f5e77fe24fca1656e2dcf55fa66a3dae55527fc711aaf43934fbfbdd3e9e70",
        "bands_resultant.json": "a1adeafa79f6ae80bc8fc8cb336cd4be40204d18f757da2ee75c4df821b2ab14",
        "comparison.json": "5e82fd8fcac764f982341790842b81b8813e562a5e251060a2fe2b63f2178259",
        "report_native.json": "7c8bc9a79b0bee6ab06b39103051c013d505a80d71b60bb4cb5134a622a556fa",
        "report_resultant.json": "f49ffa8cde94f62ab5de348defe89affc53ce852dd716423a8902a5d1ed97b98",
    },
    ("job-file", "csv"): {
        "bands_native.csv": "8a6c8ce2642687d77884578dadf7ddba70834f4ba3ce7e5d8e2d094fae8be14d",
        "bands_resultant.csv": "0c69ed1982d344e6e04b3ef1132a5b4d2f21f3feac6c89321557ee6d4c36e216",
        "comparison.json": "afc0222305e8481060ef09d684d868004f9951b457058c984510d9c73363cabd",
        "report_native.json": "cf0f4cc1549b50ee380d327f2324aa98218075c3b1ab6bf5500bbad29cea165a",
        "report_resultant.json": "cfc92784253655965de4a80ca0fb8c85ba52929ef58f0e8cf4971e7aba74902b",
    },
    ("job-file", "json"): {
        "bands_native.json": "9040bd65c3021561623c9fdbfe1bc499cb538c6bd40d006f6af178681d3ba6d4",
        "bands_resultant.json": "8b4702e72eddeb0096d78b898af61152674d4fcff604793a1c7b72ed17025a8a",
        "comparison.json": "afc0222305e8481060ef09d684d868004f9951b457058c984510d9c73363cabd",
        "report_native.json": "cf0f4cc1549b50ee380d327f2324aa98218075c3b1ab6bf5500bbad29cea165a",
        "report_resultant.json": "cfc92784253655965de4a80ca0fb8c85ba52929ef58f0e8cf4971e7aba74902b",
    },
}


# SHA-256 of the job tables that `export` writes from each scenario's
# reports in its format: the bytes `simulate` wrote as jobs_<mode>.<fmt>
# before the job tables moved to `export`.
PINNED_SCENARIO_EXPORT_SHA256 = {
    ("generated", "csv"): {
        "jobs_native.csv": "bf930bb9e9e841f07b86a72241e1839f69988084758df950b8b18a605197c230",
        "jobs_resultant.csv": "1809419146bf8b0832ac6d8171c859b6dffa50b2520ea9b8159815a4d88d22d1",
    },
    ("generated", "json"): {
        "jobs_native.json": "3a161471a453e1e997a67351abb19e8c0083e154883311f19caaa35be051b087",
        "jobs_resultant.json": "7a4ba326863164f162a8c9e6868295ae386ff599d93d771a556144b59053ecac",
    },
    ("job-file", "csv"): {
        "jobs_native.csv": "050fadc6e6c4b8e9edc34f99664ae755915011e2f1e49f6866dc40aa49c32646",
        "jobs_resultant.csv": "fa01353bdcf360a98ca45b601f4092baf4074ad076dc51aa74dbe056ff66f0f5",
    },
    ("job-file", "json"): {
        "jobs_native.json": "d008ac60eed2314c365530f19cf239203f09b4abdec325c5fea3740fcee65561",
        "jobs_resultant.json": "c0076451c0fbd66df79f6b78d9f39da088835d6461c913461b3a6fdb8239af6b",
    },
}


def _simulate_scenario(tmp_path, scenario: str, fmt: str) -> Path:
    out = tmp_path / "out"
    argv = ["simulate", "--out", str(out), "--format", fmt]
    if scenario == "generated":
        argv += ["--config", _config_file(tmp_path, ALL_STATUS_CONFIG)]
    else:
        _write_mixed_id_jobs(tmp_path / "jobs.csv")
        argv += ["--config", _config_file(tmp_path, MIXED_ID_CONFIG),
                 "--jobs", str(tmp_path / "jobs.csv")]
    assert cli.main(argv) == cli.EXIT_UNSTABLE
    return out


class TestScenarioBytes:
    @pytest.mark.parametrize("scenario,fmt", sorted(PINNED_SCENARIO_SHA256))
    def test_every_output_file_hash_is_pinned(self, tmp_path, capsys, scenario, fmt):
        out = _simulate_scenario(tmp_path, scenario, fmt)
        assert _digests(out) == PINNED_SCENARIO_SHA256[(scenario, fmt)]

        for mode in MODES:
            jobs = cli.load_report(out / f"report_{mode}.json").jobs
            statuses = {r.status for r in jobs}
            assert {"completed", "stuck", "pending"} <= statuses
            assert ("rejected" in statuses) == (scenario == "generated")
            assert any(r.status == "pending" and r.start is not None for r in jobs)
            assert any(r.status == "pending" and r.ack is None for r in jobs)
            if scenario == "job-file":
                assert {type(r.job_id) for r in jobs} == {int, str}

    @pytest.mark.parametrize("scenario,fmt", sorted(PINNED_SCENARIO_EXPORT_SHA256))
    def test_exported_job_table_hashes_are_pinned(self, tmp_path, capsys, scenario, fmt):
        out = _simulate_scenario(tmp_path, scenario, fmt)
        digests = _export_digests(out, tmp_path / "export", (fmt,))
        assert digests == PINNED_SCENARIO_EXPORT_SHA256[(scenario, fmt)]


class TestNoJobRecords:
    def test_simulate_analyze_and_compare_build_none(self, tmp_path, monkeypatch, capsys):
        # Nor does export.
        def built(*args, **kwargs):
            raise AssertionError("a JobRecord was built")

        monkeypatch.setattr(simulator.JobRecord, "__init__", built)
        path = _config_file(tmp_path, {**CONFIG, **ANALYSIS_CONFIG})
        for fmt in ("csv", "json"):
            rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / fmt),
                           "--format", fmt])
            assert rc == cli.EXIT_OK
            for mode in MODES:
                rc = cli.main(["export", str(tmp_path / fmt / f"report_{mode}.json"),
                               "--out", str(tmp_path / fmt), "--format", fmt])
                assert rc == cli.EXIT_OK
        report_path = tmp_path / "csv" / "report_native.json"
        rc = cli.main(["analyze", "--config", path, "--out", str(tmp_path / "analysis"),
                       "--report", str(report_path)])
        assert rc == cli.EXIT_CONFIG  # too few samples for the default floor
        report = cli.load_report(report_path)
        assert len(compare_analytic(report, [(0.2, 1.0, 2.0)], min_samples=1)) == 1
        with pytest.raises(AssertionError, match="a JobRecord was built"):
            report.jobs


class TestReplicate:
    def test_wait_simulated_draws_from_the_workload_section(self, tmp_path, capsys):
        path = _config_file(tmp_path, ALL_WORKLOAD_CONFIG)
        rc = cli.main(["replicate", "--config", path, "--seed", "11", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        with open(tmp_path / "replication.csv", newline="") as fh:
            simulated = {row["x"]: float(row["value"]) for row in csv.DictReader(fh)
                         if row["series"] == "wait_simulated"}
        sim = replace(cli.parse_config(path).sim, seed=11)

        def hours_by_band(spec):
            report = run(sim, sample_jobs(sim, spec, generate_arrivals(sim)), mode="resultant")
            return {band: wait / 3600.0 for band, wait in report.band_waits.items()}

        assert simulated == hours_by_band(cli.parse_config(path).workload)
        assert simulated != hours_by_band(WorkloadSpec.fixed(sim))


class TestComparison:
    def test_native_run_stopped_before_a_boosted_job(self, tmp_path, capsys):
        # The native run overflows its queue and stops before jobs arrive
        # that the resultant run ranks and boosts: those jobs have no native
        # rank, and only the jobs ranked in both runs are compared.
        config = {**ALL_STATUS_CONFIG, "simulation": {
            **ALL_STATUS_CONFIG["simulation"], "num_vms": 6, "max_retries": 5,
            "max_queue_length": 80}}
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", _config_file(tmp_path, config),
                       "--out", str(out)])
        assert rc == cli.EXIT_UNSTABLE
        native, resultant = (cli.load_report(out / f"report_{mode}.json").columns
                             for mode in MODES)
        unranked = [i for i, (tp, bp, rank) in enumerate(zip(
            resultant["tp_score"], resultant["bp_score"], native["rank"]))
            if tp is not None and tp > 60 and bp > 0 and rank is None]
        assert unranked
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["rank_never_worse"] is True
        assert comparison["boosted_jobs"] > len(unranked)

    def test_mean_waits_add_left_to_right(self):
        # The left-to-right sum of these waits is 0.0; a compensated one is 2.0.
        waits = [0.1] * 10 + [1e16, 1.0, -1e16]
        n = len(waits)
        columns = {name: [None] * n for name in JOB_FIELDS}
        columns.update(tp_score=[80] * n, bp_score=[5.0] * n, rank=[11] * n,
                       status=["completed"] * n, wait=waits)
        report = SimReport(mode="native", seed=1, columns=columns)
        comparison = cli._comparison(report, report, beta=60.0)
        assert comparison["boosted_jobs"] == n
        assert comparison["mean_wait_native"] == comparison["mean_wait_resultant"] == 0.0
