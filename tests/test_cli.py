import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

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
    jobs = sample_jobs(parsed.sim, parsed.workload)
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
    "bands_native.csv": "6f650bafe17b9ab65f46b80c3459cd1a31a1c8ef3dbf6985598d587f7ef5ab3d",
    "bands_resultant.csv": "261be2d0d7aafd29ed79ce860a4ed50069567bf2a9906ce90599a0c6d49da5c1",
    "comparison.json": "5fe938402e08bd0d17af42525fbaf941f221c636441af3a7f11635880baec018",
    "report_native.json": "d511b09ac8a86633a8f3912077b83fe933c276ef7192e22f0f8fdd99262ce468",
    "report_resultant.json": "575e46ad74eb9faa4a6ef5e1e8278c2bde14279a9fb56ae5c37d34511ff97a43",
}
# The same for `simulate --format json`.
PINNED_JSON_OUTPUT_SHA256 = {
    "bands_native.json": "ae50eaaca3d457f0969374ee63ab8134761a7a16703a33f5e5acc413632a203a",
    "bands_resultant.json": "0313c458f2270952955240abd00d6e0121ce5fbca86445639c3c66eaba5d9296",
    "comparison.json": "5fe938402e08bd0d17af42525fbaf941f221c636441af3a7f11635880baec018",
    "report_native.json": "d511b09ac8a86633a8f3912077b83fe933c276ef7192e22f0f8fdd99262ce468",
    "report_resultant.json": "575e46ad74eb9faa4a6ef5e1e8278c2bde14279a9fb56ae5c37d34511ff97a43",
}
# SHA-256 of the job tables that `export` writes from those reports, in each
# format: the bytes `simulate` wrote as jobs_<mode>.<fmt> before the job
# tables moved to `export`.
PINNED_EXPORT_SHA256 = {
    "jobs_native.csv": "365a34de012c70e0d9e4b7865a6a4db9c412d94763ec8f3878a0bc13bdec648c",
    "jobs_resultant.csv": "83e37000031373891a808e426f4ded7f5a2d78ffa17a5e383bcaa78ab3565b9d",
    "jobs_native.json": "f104b888c4fd3c30f528d3b92ee2ef4fc11cc0283313de1628277ab01627e93f",
    "jobs_resultant.json": "86415486a5918f29e2254ea041cd3b131e83f6cc352a8e80666a56972039ae6f",
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
# mu_base, blank_time and w_demand were deleted, and of the jobs.csv that
# `generate --seed 11` writes for it, as written before WorkloadSpec lost its
# copies of the SimConfig values.
PINNED_PRINT_CONFIG_SHA256 = "c7c53a17a33ba9c66181f05faa94128b7148bc5e32bff4c2013d05a056fd292b"
PINNED_GENERATED_JOBS_SHA256 = "38db1d183c9e5eb498ac56ca6086290a6ce765c2979946db6f38794badb50cd9"
# ALL_WORKLOAD_CONFIG with a catalog from the config file, whose converters
# make every ram and disk a float; the default catalog's disks are ints.
FLOAT_CATALOG_CONFIG = dict(ALL_WORKLOAD_CONFIG, catalog=[
    {"name": f"x{i}", "cores": cores, "ecus": 3.0, "ram": ram, "arch_bits": 64, "disk": disk,
     "cost": cost}
    for i, (cores, ram, disk, cost) in enumerate([(1, 1.7, 160, 0.1), (2, 7.5, 850.0, 0.4),
                                                  (4, 15, 1690, 0.8), (2, 1.7, 350.5, 0.2),
                                                  (8, 7.0, 1690.0, 0.8)])])
# SHA-256 of repr(list(sample_jobs(...))) for each config's own seed, which
# tells an int value from a float one, and of the jobs.csv that
# `generate --seed 11` writes for FLOAT_CATALOG_CONFIG; all as they were while
# sample_jobs built Job objects.
PINNED_SAMPLED_JOBS_SHA256 = {
    "default": "ddba324b868ea32b2e1d6cca817d0f2943b4fe6880bdac15b14d13c2df7690c0",
    "config-file": "98bc8102472f635d226bd41dd051c45fdec0ac6a0321bc06fe15f3815f4abbdb",
}
PINNED_GENERATED_FLOAT_CATALOG_JOBS_SHA256 = (
    "2f257426216bb898a4742abeb8e81a8a73cf1d714edf244f6a3e0d86c9656219")


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

    def test_generated_jobs_of_a_config_file_catalog_hash_is_pinned(self, tmp_path, capsys):
        path = _config_file(tmp_path, FLOAT_CATALOG_CONFIG)
        rc = cli.main(["generate", "--config", path, "--seed", "11", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        digest = hashlib.sha256((tmp_path / "jobs.csv").read_bytes()).hexdigest()
        assert digest == PINNED_GENERATED_FLOAT_CATALOG_JOBS_SHA256

    @pytest.mark.parametrize("catalog,config", [("default", ALL_WORKLOAD_CONFIG),
                                                ("config-file", FLOAT_CATALOG_CONFIG)])
    def test_sampled_job_values_and_types_are_pinned(self, tmp_path, catalog, config):
        parsed = cli.parse_config(_config_file(tmp_path, config))
        jobs = sample_jobs(parsed.sim, parsed.workload)
        digest = hashlib.sha256(repr(list(jobs)).encode()).hexdigest()
        assert digest == PINNED_SAMPLED_JOBS_SHA256[catalog]


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


def test_setup_does_not_import_orjson():
    # Only the report writer needs orjson, so importing the cli and parsing a
    # config, which perfbench times as set-up, do not import it.
    code = ("import sys\nfrom cloudsched import cli\ncli.parse_config(None)\n"
            "assert 'orjson' not in sys.modules")
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True)


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


# Row values for report pairs: equal ones that encode differently (0.0 and
# -0.0; 1, 1.0 and True), a float with a 17-digit text, an int no float
# holds, a str with a comma, and "nan", which stands for a new NaN object
# each time it is drawn.
_PAIR_VALUES = st.sampled_from((0.0, -0.0, 1, 1.0, True, False, None, 0.1 + 0.2, 2**70,
                                "a,b", "nan")) | st.floats()
# Where a row of a column of a pair takes its object from: the column it is
# built on ("known", weighted up so that most columns share most rows), the
# arrival objects, a new object equal to the known one, or a new value.
_ROW_SOURCES = st.sampled_from(("known",) * 4 + ("arrival", "equal", "new"))


def _equal_object(value):
    """A new object that encodes as value does: a float or an int parsed from
    its repr (a small int is cached, so it stays the same object); value
    itself for other types."""
    if type(value) in (float, int):
        return type(value)(repr(value))
    return value


@st.composite
def report_pairs(draw):
    """A native and a resultant report of the same length whose columns
    share random subsets of row objects: each native column is built on
    the native arrival objects, each resultant column on the native column
    of its name. The values are of any type in any column, so a float
    field may hold a str with a comma."""
    n = draw(st.integers(0, 40))

    def value():
        v = draw(_PAIR_VALUES)
        return math.nan * 1.0 if v == "nan" else v

    def column(known, arrival):
        sources = draw(st.lists(_ROW_SOURCES, min_size=n, max_size=n))
        return [known[i] if source == "known" else arrival[i] if source == "arrival"
                else _equal_object(known[i]) if source == "equal" else value()
                for i, source in enumerate(sources)]

    arrival = [value() for _ in range(n)]
    native = {name: column(arrival, arrival) for name in JOB_FIELDS}
    resultant = {name: column(native[name], native["arrival"]) for name in JOB_FIELDS}
    return [SimReport(mode=mode, seed=1, columns=columns)
            for mode, columns in zip(MODES, (native, resultant))]


def _spy_runs(monkeypatch) -> list:
    """The reports cli.run returns from now on, in order."""
    reports = []
    real_run = cli.run

    def spy(config, jobs, mode="resultant"):
        reports.append(real_run(config, jobs, mode=mode))
        return reports[-1]

    monkeypatch.setattr(cli, "run", spy)
    return reports


class TestPairedWrite:
    """simulate writes the two reports of a pair (_write_report), and each
    file is that report's own to_json() and a newline, whatever row objects
    the two reports share."""

    @staticmethod
    def _write_pair(out: Path, native: SimReport, resultant: SimReport) -> None:
        for report in (native, resultant):
            cli._write_report(out, report, "csv")

    @staticmethod
    def _assert_files_are_to_json(out: Path, reports) -> None:
        for report in reports:
            assert (out / f"report_{report.mode}.json").read_text() == report.to_json() + "\n"

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(reports=report_pairs())
    def test_pairs_that_share_row_objects_write_each_to_json(self, tmp_path, reports):
        self._write_pair(tmp_path, *reports)
        self._assert_files_are_to_json(tmp_path, reports)

    def test_pair_with_str_ids_rejected_rows_and_an_unstable_stop(self, tmp_path):
        # Five jobs at t=0 on one VM with a queue of two: both runs stop
        # unstable with jobs pending. Job 10 is rejected.
        config = SimConfig(num_tasks=1, num_vms=1, class_rates=(0.5, 0.5), max_queue_length=2,
                           max_retries=3, allocation_bands=((1, 100, 0.5),), seed=3)
        jobs = [Job(job_id, 0.0, 700.0, 0.0 if job_id == 10 else 650.0, 5.0,
                    ResourceDemand(1, 1.5, 100.0), BusinessProfile(100.0 * n, 0.0))
                for n, job_id in enumerate(["b", 10, "a", 2, 7])]
        job_set = simulator.JobSet(jobs)
        native, resultant = (run(config, job_set, mode=mode) for mode in MODES)
        assert native.unstable and native.rejected == 1
        assert {"pending", "rejected"} <= set(native.columns["status"])
        self._write_pair(tmp_path, native, resultant)
        self._assert_files_are_to_json(tmp_path, (native, resultant))

    def test_simulate_runs_each_mode_once(self, tmp_path, monkeypatch):
        # perfbench times the engine by wrapping cli.run: one call per mode.
        reports = _spy_runs(monkeypatch)
        rc = cli.main(["simulate", "--config", _config_file(tmp_path, CONFIG),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_OK
        assert sorted(report.mode for report in reports) == list(MODES)


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
PRIORITY_KEYS = ("beta", "w_urgency", "order_norm", "relationship_norm", "business_cap")
TOP_LEVEL_KEYS = ("catalog", "allocation_bands")

CATALOG_ENTRY = {"name": "x1", "cores": 2, "ecus": 3.0, "ram": 4.0, "arch_bits": 64,
                 "disk": 100.0, "cost": 0.25}

# A non-default value for every SimConfig field, plus the other keys that must
# change with it to keep the config valid. Where a field can move a schedule,
# its value moves one in TestFieldEffect's runs: a due time of 651 s leaves a
# job 1 s of wait to meet it, a business cap of 5 is below the boost of 10
# that the default order range reaches, and no retry makes a failed draw stick.
FIELD_VALUES = {
    "num_tasks": (10, {}),
    "num_vms": (7, {}),
    "arrival_rate": (2.0, {"class_rates": [1.0, 1.0]}),
    "class_rates": ([0.25, 0.75], {}),
    "beta": (55.0, {}),
    "w_urgency": (0.6, {}),
    "order_norm": (0.02, {}),
    "relationship_norm": (0.5, {}),
    "business_cap": (5.0, {}),
    "seed": (99, {}),
    "catalog": ([CATALOG_ENTRY], {}),
    "allocation_bands": ([[1, 50, 1.0], [51, 100, 0.5]], {}),
    "retry_interval": (2.5, {}),
    "due_time": (651.0, {}),
    "exec_time": (600.0, {}),
    "prep_time": (1.0, {}),
    "epoch_length": (30.0, {}),
    "max_retries": (0, {}),
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
    "priority.order_norm=0.01",
    "priority.relationship_norm=0.0",
    "priority.business_cap=10.0",
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
        # The keys of deleted fields.
        ({"priority": {"blank_time": 0.0}}, "priority.blank_time"),
        ({"priority": {"w_demand": 0.3}}, "priority.w_demand"),
    ])
    def test_unknown_key_names_its_path(self, tmp_path, capsys, config, keypath):
        rc, _out, err = _print_config(tmp_path, capsys, config)
        assert rc == cli.EXIT_CONFIG
        assert err == f"config error: {keypath}: unknown key\n"

    @pytest.mark.parametrize("config,keypath", [
        ({"simulation": {"arrival_rate": True}}, "simulation.arrival_rate"),
        ({"priority": {"beta": False}}, "priority.beta"),
        ({"simulation": {"num_tasks": 1.5}}, "simulation.num_tasks"),
        ({"simulation": {"seed": 2.0}}, "simulation.seed"),
        ({"priority": {"business_cap": math.nan}}, "priority.business_cap"),
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


# The field-effect runs: 400 jobs on 300 VMs, so that the queue grows, under
# the fixed timing of the simulation section and under varying timing.
EFFECT_SETTINGS = {"num_tasks": 400, "num_vms": 300, "seed": 5}
EFFECT_TIMINGS = {
    "fixed": {},
    "varying": {"workload": {"due": {"kind": "uniform", "params": [660.0, 3600.0]},
                             "exec": {"kind": "exponential", "params": [650.0]},
                             "prep": {"kind": "uniform", "params": [0.0, 10.0]}}},
}
# What a run decides for each job, and its summary: every SimReport field but
# the echoes of its input.
OUTCOME_COLUMNS = ("start", "completion", "status", "retries", "rank", "class_index",
                   "instance", "cost", "deadline_met", "chain_position")
OUTCOME_SUMMARY = tuple(f.name for f in fields(SimReport)
                        if f.name not in ("mode", "seed", "columns", "config"))
# The SimConfig fields that no value moves a schedule of, and why.
NO_EFFECT_FIELDS = {
    "prep_time": "it shifts every start slack of a window alike, which moves no urgency, "
                 "and the workload section's prep replaces it under varying timing",
}


def _outcomes(tmp_path, settings, workload) -> dict:
    """The outcomes, by mode, of a paired run of EFFECT_SETTINGS updated with
    settings, under the workload section of a timing."""
    config = {**_config_setting({**EFFECT_SETTINGS, **settings}), **workload}
    parsed = cli.parse_config(_config_file(tmp_path, config))
    jobs = sample_jobs(parsed.sim, parsed.workload)
    outcomes = {}
    for mode in MODES:
        report = run(parsed.sim, jobs, mode=mode)
        outcomes[mode] = ([report.columns[name] for name in OUTCOME_COLUMNS],
                          [getattr(report, name) for name in OUTCOME_SUMMARY])
    return outcomes


@pytest.fixture(scope="module")
def effect_baselines(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("effect")
    return {timing: _outcomes(tmp_path, {}, workload)
            for timing, workload in EFFECT_TIMINGS.items()}


class TestFieldEffect:
    """Each SimConfig field's FIELD_VALUES setting changes some outcome of a
    paired run, in at least one mode and timing, or the field is listed in
    NO_EFFECT_FIELDS: a field that moves nothing is a key to delete."""

    @pytest.mark.parametrize("name", sorted(FIELD_VALUES))
    def test_each_field_moves_a_schedule(self, tmp_path, effect_baselines, name):
        value, companions = FIELD_VALUES[name]
        settings = {name: value, **companions}
        moved = [f"{timing}/{mode}" for timing, workload in EFFECT_TIMINGS.items()
                 for mode, outcome in _outcomes(tmp_path, settings, workload).items()
                 if outcome != effect_baselines[timing][mode]]
        assert bool(moved) == (name not in NO_EFFECT_FIELDS), moved

    def test_listed_fields_are_fields(self):
        assert set(NO_EFFECT_FIELDS) <= set(FIELD_VALUES)


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


class TestRunLimits:
    @pytest.mark.parametrize("key,value,message", [
        ("max_retries", -3, "max_retries must be >= 0"),
        ("max_queue_length", 0, "max_queue_length must be >= 1"),
    ])
    def test_out_of_range_limit_exits_2_naming_the_key(self, tmp_path, capsys, key, value,
                                                       message):
        path = _config_file(tmp_path, {"simulation": {"num_tasks": 20, key: value}})
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestInvariantKeyPaths:
    """A SimConfig invariant that fails is named by the key path of its field;
    the sum of class_rates against arrival_rate names class_rates."""

    @pytest.mark.parametrize("config,keypath,message", [
        ({"simulation": {"num_tasks": 0}}, "simulation.num_tasks", "num_tasks must be >= 1"),
        ({"simulation": {"num_vms": 0}}, "simulation.num_vms", "num_vms must be >= 1"),
        ({"simulation": {"arrival_rate": 0}}, "simulation.arrival_rate",
         "arrival_rate must be > 0"),
        ({"simulation": {"class_rates": [-1.0, 2.0]}}, "simulation.class_rates",
         "class_rates must be a non-empty list of positive rates"),
        ({"simulation": {"class_rates": [0.5]}}, "simulation.class_rates",
         "class_rates must sum to arrival_rate: sum is 0.5, arrival_rate is 1.0"),
        ({"priority": {"beta": 150}}, "priority.beta", "beta must be in [0,100]"),
        ({"priority": {"w_urgency": -0.1}}, "priority.w_urgency", "w_urgency must be in [0,1]"),
        ({"priority": {"w_urgency": 1.1}}, "priority.w_urgency", "w_urgency must be in [0,1]"),
        ({"priority": {"w_urgency": 1.0000000000000002}}, "priority.w_urgency",
         "w_urgency must be in [0,1]"),
        ({"priority": {"business_cap": -1}}, "priority.business_cap",
         "business_cap must be >= 0"),
        ({"simulation": {"seed": -1}}, "simulation.seed", "seed must be >= 0"),
        ({"simulation": {"seed": 2**128}}, "simulation.seed", "seed must be < 2**128"),
        ({"allocation_bands": [[1, 50, 1.0]]}, "allocation_bands",
         "allocation_bands must cover ranks 1..100"),
        ({"allocation_bands": [[1, 10, 1.0], [21, 100, 0.5]]}, "allocation_bands",
         "allocation_bands must not overlap or leave gaps (at rank 21)"),
        ({"allocation_bands": [[1, 50, 1.0], [51, 50, 0.5], [51, 100, 0.5]]},
         "allocation_bands", "allocation band (51,50) is empty"),
        ({"allocation_bands": [[1, 100, 1.5]]}, "allocation_bands",
         "allocation probability 1.5 not in (0, 1]"),
        ({"allocation_bands": [[1, 50, 0.5], [51, 100, 1.0]]}, "allocation_bands",
         "allocation probabilities must be non-increasing with rank"),
        ({"simulation": {"retry_interval": 0}}, "simulation.retry_interval",
         "retry_interval must be > 0"),
        ({"simulation": {"epoch_length": 0}}, "simulation.epoch_length",
         "epoch_length must be > 0"),
        ({"simulation": {"max_retries": -3}}, "simulation.max_retries",
         "max_retries must be >= 0"),
        ({"simulation": {"max_queue_length": 0}}, "simulation.max_queue_length",
         "max_queue_length must be >= 1"),
    ])
    def test_failed_invariant_names_its_key_path(self, tmp_path, capsys, config, keypath,
                                                 message):
        rc, _out, err = _print_config(tmp_path, capsys, config)
        assert rc == cli.EXIT_CONFIG
        assert err == f"config error: {keypath}: {message}\n"

    @pytest.mark.parametrize("w_urgency", [0.0, 0.7, 1.0])
    def test_urgency_weight_alone_is_accepted(self, tmp_path, capsys, w_urgency):
        # The demand weight is 1 - w_urgency, so no other key moves with it.
        path = _config_file(tmp_path, {"simulation": {"num_tasks": 20},
                                       "priority": {"w_urgency": w_urgency}})
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert (rc, capsys.readouterr().err) == (cli.EXIT_OK, "")
        config = cli.load_report(tmp_path / "out" / "report_native.json").config
        assert config["w_urgency"] == w_urgency and "w_demand" not in config


class TestErrorPaths:
    """Bad input exits with its code and a reason, without a traceback. The
    input file is written from text; {path} and {out} in argv and in the
    stderr fragment are its path and an output directory."""

    @pytest.mark.parametrize("argv,text,code,fragment", [
        (["--print-config", "--config", "{path}"], '{\n  "simulation": {"num_tasks": }\n}\n',
         cli.EXIT_CONFIG, "config error: {path}: not valid JSON: Expecting value: "
         "line 2 column 31 (char 32)"),
        (["--print-config", "--config", "{path}"], b'{"simulation": {"seed": "\xff"}}',
         cli.EXIT_CONFIG, "config error: {path}: not valid JSON: 'utf-8' codec can't decode"),
        (["--print-config", "--config", "{path}"], "[1]", cli.EXIT_CONFIG,
         "config error: top level must be an object"),
        (["--print-config", "--config", "{path}"], '{"priority": 5}', cli.EXIT_CONFIG,
         "config error: priority: expected an object, got 5"),
        (["--print-config", "--config", "{path}"], '{"catalog": [5]}', cli.EXIT_CONFIG,
         "config error: catalog[0]: expected an object, got 5"),
        (["--print-config", "--config", "{path}"], '{"allocation_bands": [[1, 100]]}',
         cli.EXIT_CONFIG,
         "config error: allocation_bands[0]: expected a list of 3 items, got [1, 100]"),
        (["simulate", "--jobs", "{path}", "--out", "{out}"], "", cli.EXIT_CONFIG,
         "config error: workload file {path} contains no jobs"),
        (["analyze", "--config", "{path}", "--out", "{out}"], "{}", cli.EXIT_CONFIG,
         "config error: analyze requires an analysis.classes section in the config"),
        ([], "", cli.EXIT_CONFIG, "usage: cloudsched"),
        (["simulate", "--config", "{path}", "--out", "{path}/out"], "{}", cli.EXIT_IO,
         "i/o error: cannot create output directory {path}/out"),
    ], ids=["malformed-config", "config-not-utf-8", "top-level-not-object",
            "section-not-object", "catalog-entry-not-object", "band-of-2-items",
            "empty-job-file", "analyze-without-analysis", "no-command",
            "output-directory-not-made"])
    def test_bad_input_exits_with_its_code_and_reason(self, tmp_path, capsys, argv, text,
                                                      code, fragment):
        path = tmp_path / "input"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        names = {"path": path, "out": tmp_path / "out"}
        assert cli.main([arg.format(**names) for arg in argv]) == code
        err = capsys.readouterr().err
        assert fragment.format(**names) in err
        assert "Traceback" not in err
        if code == cli.EXIT_CONFIG:  # the inputs are checked before the directory is made
            assert not names["out"].exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--config", "{config}"],
        ["simulate", "--config", "{config}"],
        ["analyze", "--config", "{config}", "--report", "{report}"],
        ["replicate", "--config", "{config}"],
        ["export", "{report}"],
    ], ids=lambda argv: argv[0])
    def test_out_under_a_file_exits_3_before_the_work(self, tmp_path, monkeypatch, capsys,
                                                      argv):
        def no_run(*args, **kwargs):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.setattr(simulator, "run", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        names = {"config": _config_file(tmp_path, {"simulation": {"num_tasks": 20},
                                                   **ANALYSIS_CONFIG}),
                 "report": tmp_path / "missing.json"}
        before = sorted(tmp_path.rglob("*"))
        out = blocker / "out"
        rc = cli.main([arg.format(**names) for arg in argv] + ["--out", str(out)])
        assert rc == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"i/o error: cannot create output directory {out}: {blocker} is not a directory\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_out_in_a_directory_not_writable_exits_3(self, tmp_path, monkeypatch, capsys):
        # Permission bits do not bind every user, so the access check is stubbed.
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        out = tmp_path / "a" / "out"
        rc = cli.main(["simulate", "--config", _config_file(tmp_path, CONFIG),
                       "--out", str(out)])
        assert rc == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"i/o error: cannot write to output directory {out}: {tmp_path} is not writable\n")
        assert not (tmp_path / "a").exists()


class TestGenerateOptions:
    def test_format_is_rejected(self, tmp_path, capsys):
        # generate writes jobs.csv whatever the format, so it takes none.
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--format", "json", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not (tmp_path / "jobs.csv").exists()

    def test_out_defaults_to_cloudsched_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env-out"))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["generate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "output directory (default $CLOUDSCHED_OUT or '.')" in help_text
        config = _config_file(tmp_path, {"simulation": {"num_tasks": 20}})
        assert cli.main(["generate", "--config", config]) == cli.EXIT_OK
        assert (tmp_path / "env-out" / "jobs.csv").exists()
        assert not (tmp_path / "jobs.csv").exists()


class TestSeedBound:
    """A seed is a 128-bit Philox key; 2**128 and above exit 2 on each path."""

    def test_config_seed_of_2_to_the_128_exits_2(self, tmp_path, capsys):
        path = _config_file(tmp_path, {"simulation": {"num_tasks": 20, "seed": 2**128}})
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "seed must be < 2**128" in capsys.readouterr().err

    def test_seed_override_of_2_to_the_128_exits_2(self, tmp_path, capsys):
        path = _config_file(tmp_path, {"simulation": {"num_tasks": 20}})
        rc = cli.main(["simulate", "--config", path, "--seed", str(2**128),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "--seed: seed must be < 2**128" in capsys.readouterr().err
        rc = cli.main(["simulate", "--config", path, "--seed", str(2**128 - 1),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_OK


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
        # A field over the csv module's size limit (131072 characters).
        (["0,0.0,700,650,5,1,1.7,160,100,5", f"1,{'9' * 200_000},700,650,5,1,1.7,160,100,5"],
         "record 2: field larger than field limit (131072)"),
        # Fields that pass every check, but whose start slack or demand
        # weight overflows to a float infinity.
        (["0,0.0,700,650,5,1,1.7,160,100,5", "1,0.0,700,1e308,1e308,1,1.7,160,100,5"],
         "record 2: start slack (due_time - exec_time - prep_time) must be finite"),
        (["0,0.0,700,650,5,1,1.7,160,100,5", "1,0.0,700,650,5,1,1e308,1e308,100,5"],
         "record 2: demand weight (processors + memory + storage) must be finite"),
    ])
    def test_bad_job_file_exits_2(self, tmp_path, capsys, rows, message):
        jobs = tmp_path / "jobs.csv"
        jobs.write_text(JOB_FILE_HEADER + "\n".join(rows) + "\n")
        rc = cli.main(["simulate", "--jobs", str(jobs), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_byte_that_is_not_utf_8_exits_2(self, tmp_path, capsys):
        # The error is that of record 2, which holds the byte, although the
        # file is decoded a block at a time and its first block fails.
        jobs = tmp_path / "jobs.csv"
        jobs.write_bytes(JOB_FILE_HEADER.encode() + b"0,0.0,700,650,5,1,1.7,160,100,5\n"
                         b"\xff1,0.0,700,650,5,1,1.7,160,100,5\n")
        rc = cli.main(["simulate", "--jobs", str(jobs), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: record 2: 'utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edits,message", [
        ({}, "record 600: 'utf-8' codec can't decode byte 0xff in position {at}: "
             "invalid start byte"),
        # Earlier errors come first, also those in the block that fails to decode.
        ({500: "500,0.0,700,0,5,1,1.7,160,100,5"}, "record 500: exec_time must be > 0"),
        ({500: "3,0.0,700,650,5,1,1.7,160,100,5"}, "record 500: duplicate job id 3"),
        ({500: "500,0.0,700,650,5,1,1.7,160,100"}, "record 500: expected 10 fields, got 9"),
    ], ids=["byte-only", "invalid-before", "duplicate-before", "malformed-before"])
    def test_byte_past_the_first_block_names_its_record(self, tmp_path, capsys, edits,
                                                        message):
        rows = [f"{i},0.0,700,650,5,1,1.7,160,100,5" for i in range(1, 1001)]
        for record, row in edits.items():
            rows[record - 1] = row
        text = (JOB_FILE_HEADER + "\n".join(rows) + "\n").encode()
        at = text.index(b"\n600,") + 5  # the byte is in record 600's second field
        assert at > 8192
        jobs = tmp_path / "jobs.csv"
        jobs.write_bytes(text[:at] + b"\xff" + text[at:])
        rc = cli.main(["simulate", "--jobs", str(jobs), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {message.format(at=at)}" in err
        assert "Traceback" not in err

    def test_start_slack_spread_that_overflows_is_scored(self, tmp_path):
        # Both jobs pass validation and share an epoch, but their start
        # slacks, about 1.7e308 and -1.7e308, differ by more than a float holds.
        jobs = tmp_path / "jobs.csv"
        jobs.write_text(JOB_FILE_HEADER + "0,0.0,1.7e308,1,5,1,1.7,160,100,5\n"
                        "1,0.0,1,1.7e308,5,1,1.7,160,100,5\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--jobs", str(jobs), "--out", str(out)]) == cli.EXIT_OK
        report = cli.load_report(out / "report_native.json")
        # The latest slack has urgency 0, the earliest urgency 1.
        assert report.columns["tp_score"] == [30, 100]
        assert report.columns["status"] == ["completed", "completed"]

    def test_unsatisfiable_demand_exits_2_naming_the_job(self, tmp_path, capsys):
        # No catalog entry has 100 processors; the run stops before it
        # simulates anything.
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


class TestAnalyzeClasses:
    @pytest.mark.parametrize("key", ["rate", "mean_service", "mean_service_sq"])
    @pytest.mark.parametrize("value", [0, -1.0])
    def test_non_positive_moment_exits_2_naming_the_class(self, tmp_path, capsys, key,
                                                          value):
        good = {"rate": 0.2, "mean_service": 1.0, "mean_service_sq": 2.0}
        classes = [good, dict(good, **{key: value})]
        path = _config_file(tmp_path, {"analysis": {"classes": classes}})
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: analysis.classes[1]: rate, "
                                           "mean_service and mean_service_sq must be > 0\n")
        assert not out.exists()

    def test_utilization_of_1_exits_4(self, tmp_path, capsys):
        classes = [{"rate": 0.5, "mean_service": 1.0, "mean_service_sq": 2.0}] * 2
        path = _config_file(tmp_path, {"analysis": {"classes": classes}})
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == cli.EXIT_UNSTABLE
        assert capsys.readouterr().err == "unstable: utilization 1\n"
        assert not out.exists()

    def test_report_comparison_is_written(self, tmp_path, capsys):
        # One class, so that every one of the 10 000 jobs counts toward the
        # floor of completed jobs per class that compare_analytic needs.
        classes = [{"rate": 0.2, "mean_service": 1.0, "mean_service_sq": 2.0}]
        path = _config_file(tmp_path, {"simulation": {"num_tasks": 10_000, "class_rates": [1.0]},
                                       "analysis": {"classes": classes}})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        report = out / "report_resultant.json"
        assert cli.main(["analyze", "--config", path, "--out", str(out),
                         "--report", str(report)]) == cli.EXIT_OK
        [error] = compare_analytic(cli.load_report(report), cli.parse_config(path).analysis)
        assert (out / "analysis_vs_simulation.csv").read_text() == (
            f"class,relative_error\n1,{error!r}\n")
        assert f"class 1: relative error vs simulation {error:.4f}\n" in capsys.readouterr().out


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

    @pytest.mark.parametrize("reshape,message", [
        (lambda data: [data], "top level must be an object"),
        (lambda data: dict(data, jobs=dict(data["jobs"], wait=data["jobs"]["wait"][1:])),
         "not a report: jobs must hold one list per JobRecord field, all of one length"),
    ], ids=["top-level-not-object", "column-of-another-length"])
    def test_report_of_a_wrong_shape_exits_2_naming_the_file(self, simulated, tmp_path, capsys,
                                                             reshape, message):
        out, _reports = simulated
        data = json.loads((out / "report_native.json").read_text())
        rc, err, path = self._analyze(tmp_path, capsys, json.dumps(reshape(data)))
        assert rc == cli.EXIT_CONFIG
        assert err == f"report error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_completed_job_without_a_wait_exits_2(self, tmp_path, capsys):
        # Job 0 of the stored report completed; compare_analytic would add
        # its wait.
        data = json.loads(V2_REPORT.read_text())
        data["jobs"]["wait"][0] = None
        config = {"analysis": {"classes": [
            {"rate": 0.2, "mean_service": 1.0, "mean_service_sq": 2.0}] * 3}}
        report = tmp_path / "report.json"
        report.write_text(json.dumps(data))
        out = tmp_path / "out"
        rc = cli.main(["analyze", "--config", _config_file(tmp_path, config),
                       "--out", str(out), "--report", str(report)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (f"report error: {report}: not a report: column "
                                           "'wait' holds None for the completed job 0\n")
        assert not out.exists()

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
# tests/data/report_v2.json is the schema 2 report of the same run, as
# to_json() wrote it while allocation draws came from per-job PCG64 streams:
# it stands for the new run, whose draws now differ.
V1_REPORT = Path(__file__).parent / "data" / "report_v1.json"
V2_REPORT = Path(__file__).parent / "data" / "report_v2.json"
V1_CONFIG = SimConfig(num_tasks=12, num_vms=1, seed=7, max_retries=3, max_queue_length=2,
                      allocation_bands=((1, 100, 0.5),))
# SHA-256 of the job table that `export` writes from either stored report, in
# each format, as written while SimConfig still had the blank_time field that
# both reports' configs hold.
PINNED_STORED_EXPORT_SHA256 = {
    "csv": "8ef942187684c133743ab7fbc494d83e4a61b865c8217ae3d098d01934fc988b",
    "json": "f9f42772e2c691cff04392057374c1310e38db04bdcc23c6775316752ac87701",
}


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
        new = cli.load_report(V2_REPORT)
        assert {"completed", "rejected", "stuck", "pending"} == set(new.columns["status"])
        assert _typed(old.columns) == _typed(new.columns)
        rows = json.loads(V1_REPORT.read_text())["jobs"]
        assert [row["allocation"] for row in rows] == old.columns["start"]
        assert [row["sls"] for row in rows] == old.columns["resultant"]
        assert old.config.pop("mu_base") == 1.0
        assert replace(old, columns=new.columns) == new

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_v1_report_exports_as_a_new_run_does(self, tmp_path, capsys, fmt):
        tables = []
        for report in (V1_REPORT, V2_REPORT):
            out = tmp_path / f"export_{len(tables)}"
            assert cli.main(["export", str(report), "--out", str(out),
                             "--format", fmt]) == cli.EXIT_OK
            tables.append((out / f"jobs_resultant.{fmt}").read_bytes())
        assert tables[0] == tables[1]
        assert hashlib.sha256(tables[0]).hexdigest() == PINNED_STORED_EXPORT_SHA256[fmt]

    @pytest.mark.parametrize("path", (V1_REPORT, V2_REPORT), ids=("v1", "v2"))
    def test_config_keeps_the_keys_of_deleted_fields(self, path):
        # A report's config is read back as written: blank_time and w_demand
        # are no longer SimConfig fields, but a report that holds them still
        # loads.
        config = cli.load_report(path).config
        assert config == json.loads(path.read_text())["config"]
        assert (config["blank_time"], config["w_demand"]) == (0.0, 0.3)
        assert not {"blank_time", "w_demand"} & {f.name for f in fields(SimConfig)}

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
        "bands_native.csv": "f39e8f73d76c699914e17f36bdd1c30cc814d1be3f501167a076f61ec0d5c5b5",
        "bands_resultant.csv": "d6a412e433a260ae62bfba7c6ffd8a122e7911b7f16c9a89c4c99b6c4e6de98a",
        "comparison.json": "20f1c63052f869b875a41213c891532269217378c1506e0d6de8e3f1bc69272d",
        "report_native.json": "4a62ebcc596ca9cd40e7bfd8d5320cd0369e0f01399ac4e34c486d39baeb17e1",
        "report_resultant.json": "4928bcc1d7c2b27a29fc28639ca4eb8d252ce9ef1c380eaf449741917f8f6860",
    },
    ("generated", "json"): {
        "bands_native.json": "24dfaf7b3f627e823a38d17899e4c836543094f0caa37fd228ec168c5eeba220",
        "bands_resultant.json": "112f26f6575b25f4cb0dd1345a0593db8be8363f339326ecb7e48e68f88183b8",
        "comparison.json": "20f1c63052f869b875a41213c891532269217378c1506e0d6de8e3f1bc69272d",
        "report_native.json": "4a62ebcc596ca9cd40e7bfd8d5320cd0369e0f01399ac4e34c486d39baeb17e1",
        "report_resultant.json": "4928bcc1d7c2b27a29fc28639ca4eb8d252ce9ef1c380eaf449741917f8f6860",
    },
    ("job-file", "csv"): {
        "bands_native.csv": "8da242edee983e4f4aad30ca32eda4892e6779873f3d5ea5f14343a6d08e8e99",
        "bands_resultant.csv": "3347f86470ee3b95fc594dd6d2517a27097813ca126630cd732fc81383dc288b",
        "comparison.json": "e86a57106ef2641e29b16a902973e0170574c5494eec7c724169fd306d7e6de2",
        "report_native.json": "8f5dcca7cc55b567f1ef61d8c05b080a591f807c4b2c8c95a6297506ad295694",
        "report_resultant.json": "8ad3097c76880d24f2fea5c33b3a82a1b5b1e35e9836d48e9b09d9fa4b861520",
    },
    ("job-file", "json"): {
        "bands_native.json": "7c8b5b6362a761a45af7713f65fab3cf7f34907f240ff635eab24a2c0937b52a",
        "bands_resultant.json": "1d02beab1d563f87e6de59bf378097279fb867f0052bde6eee7240a8d707615f",
        "comparison.json": "e86a57106ef2641e29b16a902973e0170574c5494eec7c724169fd306d7e6de2",
        "report_native.json": "8f5dcca7cc55b567f1ef61d8c05b080a591f807c4b2c8c95a6297506ad295694",
        "report_resultant.json": "8ad3097c76880d24f2fea5c33b3a82a1b5b1e35e9836d48e9b09d9fa4b861520",
    },
}


# SHA-256 of the job tables that `export` writes from each scenario's
# reports in its format: the bytes `simulate` wrote as jobs_<mode>.<fmt>
# before the job tables moved to `export`.
PINNED_SCENARIO_EXPORT_SHA256 = {
    ("generated", "csv"): {
        "jobs_native.csv": "6a52b618eca60aa0ef1070f0abc8008e6f953d714dadb7bd0f8aee48e7a2379e",
        "jobs_resultant.csv": "3d1f8fa33bff6727cdd33fad2e5de72c70626ea94e9586e5a3528701380a433d",
    },
    ("generated", "json"): {
        "jobs_native.json": "dce2112e31f07e3beae313dd6e97f05a25bf65289d985e1dbb9f6faf506b9024",
        "jobs_resultant.json": "61cde650b649cbb336e803443f9b7c045348747d1d1d0bb904f23dab78085bc3",
    },
    ("job-file", "csv"): {
        "jobs_native.csv": "42398cb14e6798cf5cfce73fafff51dfbdba0661f2fbe30985b459ef16b9b520",
        "jobs_resultant.csv": "ae98aac107c5cd069f3376da158bb02ea607c46f7bf5d3b96184b18d9b279ed2",
    },
    ("job-file", "json"): {
        "jobs_native.json": "71aa5b77ff1bbb9714195c47b4cc5e5a6991ec06062ce1ec33f11100e19cc98b",
        "jobs_resultant.json": "e43953b1e4d01c8f41a9709e0c53585256d7c0ec32ddada7c9afc625e45464f9",
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
            report = run(sim, sample_jobs(sim, spec), mode="resultant")
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
            "max_queue_length": 80, "seed": 3}}
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
