"""Reproducible synthetic workloads (Poisson arrivals, attribute sampling) and job-file I/O.

A workload is drawn from two values: the SimConfig, which holds the job count,
arrival rate, class rates, catalog and seed, and the WorkloadSpec, which holds
only the attribute distributions of the config file's "workload" section.

sample_jobs and load_jobs return a domain.JobSet, which holds the jobs as
one Python list per field: sample_jobs fills the lists from its numpy draws,
and load_jobs parses a job file into them a column at a time. Neither builds
a Job object; job_rows gives the rows of a job file from the lists.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .domain import JobSet, SimConfig, first_repeated, valid_mask, validate_job


class ParseError(Exception):
    """A job file record that cannot be parsed. Carries the 1-based record number."""

    def __init__(self, record: int, reason: str):
        self.record = record
        self.reason = reason
        super().__init__(f"record {record}: {reason}")


class InvalidJobError(Exception):
    """A parsed job record that violates a job invariant."""

    def __init__(self, record: int, reason: str):
        self.record = record
        self.reason = reason
        super().__init__(f"record {record}: {reason}")


# One independent substream per sampled quantity, so adding or reordering a
# draw for one attribute never perturbs the others.
_STREAMS = {"arrivals": 0, "due": 1, "exec": 2, "prep": 3, "demand": 4, "business": 5}


def _stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAMS[name],)))


@dataclass(frozen=True)
class Distribution:
    """A sampling distribution: fixed(value), uniform(lo, hi), or exponential(mean)."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind == "fixed":
            if len(self.params) != 1:
                raise ValueError("fixed distribution takes one parameter (value)")
        elif self.kind == "uniform":
            if len(self.params) != 2 or self.params[0] > self.params[1]:
                raise ValueError("uniform distribution takes (lo, hi) with lo <= hi")
        elif self.kind == "exponential":
            if len(self.params) != 1 or self.params[0] <= 0:
                raise ValueError("exponential distribution takes one positive mean")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "fixed":
            return np.full(size, float(self.params[0]))
        if self.kind == "uniform":
            return rng.uniform(self.params[0], self.params[1], size)
        return rng.exponential(self.params[0], size)


@dataclass(frozen=True)
class WorkloadSpec:
    """How each job's attributes are drawn: the config file's "workload" section.

    The job count, arrival rate, class rates, catalog and seed are not here:
    their only home is SimConfig, which generate_arrivals and sample_jobs read
    them from. fixed(cfg) gives the spec whose due, exec and prep times are
    fixed at cfg's values; the ranges and uniform demand weights are the
    defaults below.
    """

    due_dist: Distribution
    exec_dist: Distribution
    prep_dist: Distribution
    demand_weights: tuple[float, ...] | None = None
    order_range: tuple[float, float] = (0.0, 1000.0)
    relationship_range: tuple[float, float] = (0.0, 100.0)

    def __post_init__(self):
        weights = self.demand_weights
        if weights is not None and not (weights and min(weights) >= 0
                                        and 0 < math.fsum(weights) < math.inf):
            raise ValueError("demand_weights must be non-negative with a positive sum")
        if self.order_range[0] > self.order_range[1] or self.order_range[0] < 0:
            raise ValueError("order_range must be (lo, hi) with 0 <= lo <= hi")
        if self.relationship_range[0] > self.relationship_range[1] or self.relationship_range[0] < 0:
            raise ValueError("relationship_range must be (lo, hi) with 0 <= lo <= hi")

    @classmethod
    def fixed(cls, cfg: SimConfig) -> WorkloadSpec:
        """The spec with due, exec and prep times fixed at cfg's values."""
        return cls(due_dist=Distribution("fixed", (cfg.due_time,)),
                   exec_dist=Distribution("fixed", (cfg.exec_time,)),
                   prep_dist=Distribution("fixed", (cfg.prep_time,)))


def generate_arrivals(cfg: SimConfig) -> np.ndarray:
    """cfg.num_tasks Poisson arrival times: cumulative i.i.d. exponential gaps
    with mean 1/cfg.arrival_rate.

    Same config gives a bit-exact identical array.
    """
    rng = _stream(cfg.seed, "arrivals")
    gaps = rng.exponential(1.0 / cfg.arrival_rate, cfg.num_tasks)
    return np.cumsum(gaps)


def sample_jobs(cfg: SimConfig, spec: WorkloadSpec) -> JobSet:
    """Draw cfg.num_tasks jobs: arrival times from generate_arrivals(cfg), and
    one job per arrival from the spec's attribute distributions, with demands
    from cfg's catalog and random streams from cfg's seed.

    Returns a JobSet whose ids are 0.. in the order of arrivals. Its value
    lists are filled from the draws; each demand value is the catalog entry's
    own, picked by shape index, so an int in the catalog (the default
    catalog's disk) stays an int. Its float64 columns are built from the same
    draws, not from the lists.
    """
    arrivals = generate_arrivals(cfg)
    n = arrivals.size
    due = spec.due_dist.sample(_stream(cfg.seed, "due"), n)
    exec_times = spec.exec_dist.sample(_stream(cfg.seed, "exec"), n)
    prep = spec.prep_dist.sample(_stream(cfg.seed, "prep"), n)

    rng_demand = _stream(cfg.seed, "demand")
    if spec.demand_weights is not None:
        w = np.asarray(spec.demand_weights, dtype=float)
        probs = w / w.sum()
    else:
        probs = None
    shape_index = rng_demand.choice(len(cfg.catalog), size=n, p=probs)
    shapes = shape_index.tolist()

    rng_business = _stream(cfg.seed, "business")
    orders = rng_business.uniform(spec.order_range[0], spec.order_range[1], n)
    relationships = rng_business.uniform(spec.relationship_range[0],
                                         spec.relationship_range[1], n)

    demands = [[getattr(entry, name) for entry in cfg.catalog]
               for name in ("cores", "ram", "disk")]
    # The set's float64 columns: the draws, and the catalog's values as floats.
    columns = np.array([arrivals, due, exec_times, prep,
                        *(np.array(values, dtype=float)[shape_index] for values in demands),
                        orders, relationships])
    return JobSet.from_columns(list(range(n)), (
        arrivals.tolist(), due.tolist(), exec_times.tolist(), prep.tolist(),
        *(list(map(values.__getitem__, shapes)) for values in demands),
        orders.tolist(), relationships.tolist()), columns)


JOB_FILE_FIELDS = ("id", "arrival", "due", "exec", "prep", "pn", "mem", "storage",
                   "order_amount", "relationship")
# The column of JobSet.values that holds the processor count, the one int field.
_PN = JOB_FILE_FIELDS.index("pn") - 1


def job_rows(jobs):
    """The data rows of a job file of jobs (a JobSet or Job objects), one at a
    time, under the header JOB_FILE_FIELDS: the id, pn as it is and the repr
    of every other value, its shortest round-trip numeral."""
    if not isinstance(jobs, JobSet):
        jobs = JobSet(jobs)
    return zip(jobs.ids, *(values if c == _PN else map(repr, values)
                           for c, values in enumerate(jobs.values)))


# An id is read as an int only when it is ASCII digits with an optional minus
# sign, as generate writes it; any other id stays a string.
_INT_ID = re.compile(r"-?[0-9]+")


def _parse_id(raw_id: str) -> int | str:
    return int(raw_id) if _INT_ID.fullmatch(raw_id) else raw_id


def _parse_row(row: list, record: int) -> tuple:
    """The id and the JOB_COLUMNS values of one record, parsed field by field:
    pn as an int, which must also convert to a float, since jobs are validated
    and simulated on float64 columns of their fields, and the rest as floats."""
    if len(row) != len(JOB_FILE_FIELDS):
        raise ParseError(record, f"expected {len(JOB_FILE_FIELDS)} fields, got {len(row)}")
    parsed = [_parse_id(row[0])]
    for c, (value, name) in enumerate(zip(row[1:], JOB_FILE_FIELDS[1:])):
        try:
            number = int(value) if c == _PN else float(value)
            float(number)  # an int too large for a float raises OverflowError
        except ValueError:
            kind = "an integer" if c == _PN else "a number"
            raise ParseError(record, f"field {name!r}: cannot parse {value!r} as {kind}") from None
        except OverflowError:
            raise ParseError(record, f"field {name!r}: integer too large for a float") from None
        parsed.append(number)
    return tuple(parsed)


def _parse_rows(rows: list, records) -> tuple[list, list, ParseError | None]:
    """The ids and the JOB_COLUMNS value lists of the rows up to the first one
    that does not parse, and that row's ParseError, None when all parse.

    Each column is parsed at once, with the float() and int() calls that
    _parse_row makes. Only when one fails, or a row has the wrong field count,
    are the rows parsed one by one (_parse_row), in record order, to find the
    first error.
    """
    n_fields = len(JOB_FILE_FIELDS)
    if set(map(len, rows)) == {n_fields}:
        raw_ids, *fields = zip(*rows)
        try:
            values = [list(map(int if c == _PN else float, column))
                      for c, column in enumerate(fields)]
            list(map(float, values[_PN]))  # an int too large for a float fails here
        except (ValueError, OverflowError):
            pass
        else:
            return list(map(_parse_id, raw_ids)), values, None
    parsed, error = [], None
    try:
        parsed.extend(map(_parse_row, rows, records))  # extend keeps the rows before an error
    except ParseError as exc:
        error = exc
    ids, *values = map(list, zip(*parsed)) if parsed else [[] for _ in range(n_fields)]
    return ids, values, error


def _read_rows(lines) -> tuple[list, ParseError | None]:
    """The csv rows of lines before the first record the csv module cannot read
    (a field over its size limit, say), and that record's ParseError, counting
    the header as record 0; None when every record reads."""
    rows = []
    try:
        rows.extend(csv.reader(lines))
    except csv.Error as exc:
        return rows, ParseError(len(rows), str(exc))
    return rows, None


def load_jobs(path) -> JobSet:
    """Read a job CSV file into a JobSet, validating every record.

    Raises ParseError for malformed records and InvalidJobError when a record
    violates a job invariant or repeats an earlier record's id; both carry the
    1-based data record number, and the error raised is that of the first
    record in the file with an error. A byte that is not UTF-8 raises the
    ParseError of the record that holds it. An empty file yields an empty set.

    The values are parsed a column at a time (see _parse_rows) and validated
    at once by domain.valid_mask; validate_job runs only for the first
    rejected record, for its reason.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows, unread = _read_rows(fh)
    except UnicodeDecodeError:
        # The stream decodes in blocks, so its rows may end before the byte's
        # record; with a placeholder for the byte, that record is the last row.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            rows, unread = _read_rows(io.StringIO(data.decode("utf-8"), newline=""))
        except UnicodeDecodeError as exc:
            rows, unread = _read_rows(io.StringIO(data[:exc.start].decode() + "?", newline=""))
            if unread is None:
                rows.pop()
                unread = ParseError(len(rows), str(exc))
    if not rows:
        if unread is not None:
            raise unread
        return JobSet()
    header = rows.pop(0)
    if tuple(h.strip() for h in header) != JOB_FILE_FIELDS:
        raise ParseError(0, f"unexpected header {header!r}")
    # Blank lines are skipped, but they keep their record numbers.
    records = range(1, len(rows) + 1)
    if [] in rows:
        records = [record for record, row in enumerate(rows, start=1) if row]
        rows = [row for row in rows if row]
    ids, values, error = _parse_rows(rows, records)
    error = error or unread
    jobs = JobSet.from_columns(ids, values)

    # The first invalid record and the first that repeats an id, of the
    # records that parse; a record that is both is reported as invalid.
    n = len(ids)
    invalid = np.flatnonzero(~valid_mask(jobs.columns))
    first_invalid = int(invalid[0]) if invalid.size else n
    repeated = first_repeated(ids)
    first_duplicate = n if repeated is None else repeated
    if first_invalid < n and first_invalid <= first_duplicate:
        raise InvalidJobError(records[first_invalid], validate_job(jobs[first_invalid]))
    if first_duplicate < n:
        raise InvalidJobError(records[first_duplicate],
                              f"duplicate job id {ids[first_duplicate]!r}")
    if error is not None:
        raise error
    return jobs
