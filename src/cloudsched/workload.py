"""Reproducible synthetic workloads (Poisson arrivals, attribute sampling) and job-file I/O.

A workload is drawn from two values: the SimConfig, which holds the job count,
arrival rate, class rates, catalog and seed, and the WorkloadSpec, which holds
only the attribute distributions of the config file's "workload" section.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import (
    INVALID,
    BusinessProfile,
    Job,
    ResourceDemand,
    SimConfig,
    validate_job,
)


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


def sample_jobs(cfg: SimConfig, spec: WorkloadSpec, arrivals) -> list[Job]:
    """Draw one job per arrival time from the spec's attribute distributions,
    with demands from cfg's catalog and random streams from cfg's seed."""
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.size == 0:
        raise ValueError("arrivals must be non-empty")
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
    shape_idx = rng_demand.choice(len(cfg.catalog), size=n, p=probs)

    rng_business = _stream(cfg.seed, "business")
    orders = rng_business.uniform(spec.order_range[0], spec.order_range[1], n)
    relationships = rng_business.uniform(spec.relationship_range[0],
                                         spec.relationship_range[1], n)

    # One ResourceDemand per catalog entry, shared by the jobs of that shape.
    demands = [ResourceDemand(entry.cores, entry.ram, entry.disk) for entry in cfg.catalog]
    return [Job(i, arrival, d, e, p, demands[shape], BusinessProfile(order, relationship))
            for i, (arrival, d, e, p, shape, order, relationship) in enumerate(zip(
                arrivals.tolist(), due.tolist(), exec_times.tolist(), prep.tolist(),
                shape_idx.tolist(), orders.tolist(), relationships.tolist()))]


JOB_FILE_FIELDS = ("id", "arrival", "due", "exec", "prep", "pn", "mem", "storage",
                   "order_amount", "relationship")


def jobs_to_csv(jobs) -> str:
    """Render jobs as CSV text with the standard header, shortest round-trip numerals."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(JOB_FILE_FIELDS)
    for job in jobs:
        writer.writerow([
            job.id,
            repr(job.arrival_time),
            repr(job.due_time),
            repr(job.exec_time),
            repr(job.prep_time),
            job.demand.processors,
            repr(job.demand.memory),
            repr(job.demand.storage),
            repr(job.business.order_amount),
            repr(job.business.relationship),
        ])
    return buf.getvalue()


def save_jobs(path, jobs) -> None:
    """Write jobs as a CSV file."""
    with open(path, "w", newline="") as fh:
        fh.write(jobs_to_csv(jobs))


def _parse_float(value: str, name: str, record: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(record, f"field {name!r}: cannot parse {value!r} as a number") from None


def _parse_int(value: str, name: str, record: int) -> int:
    """value as an int, which must also convert to a float: jobs are
    validated and simulated on float64 columns of their fields."""
    try:
        number = int(value)
    except ValueError:
        raise ParseError(record, f"field {name!r}: cannot parse {value!r} as an integer") from None
    try:
        float(number)
    except OverflowError:
        raise ParseError(record, f"field {name!r}: integer too large for a float") from None
    return number


# An id is read as an int only when it is ASCII digits with an optional minus
# sign, as generate writes it; any other id stays a string.
_INT_ID = re.compile(r"-?[0-9]+")


def load_jobs(path) -> list[Job]:
    """Read a job CSV file, validating every record.

    Raises ParseError for malformed records and InvalidJobError when a record
    violates a job invariant or repeats an earlier record's id; both carry the
    1-based data record number. An empty file yields an empty list.
    """
    path = Path(path)
    jobs: list[Job] = []
    seen_ids = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return jobs
        if tuple(h.strip() for h in header) != JOB_FILE_FIELDS:
            raise ParseError(0, f"unexpected header {header!r}")
        for record, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(JOB_FILE_FIELDS):
                raise ParseError(record, f"expected {len(JOB_FILE_FIELDS)} fields, got {len(row)}")
            raw_id = row[0]
            job_id: int | str = int(raw_id) if _INT_ID.fullmatch(raw_id) else raw_id
            job = Job(
                id=job_id,
                arrival_time=_parse_float(row[1], "arrival", record),
                due_time=_parse_float(row[2], "due", record),
                exec_time=_parse_float(row[3], "exec", record),
                prep_time=_parse_float(row[4], "prep", record),
                demand=ResourceDemand(
                    processors=_parse_int(row[5], "pn", record),
                    memory=_parse_float(row[6], "mem", record),
                    storage=_parse_float(row[7], "storage", record),
                ),
                business=BusinessProfile(
                    order_amount=_parse_float(row[8], "order_amount", record),
                    relationship=_parse_float(row[9], "relationship", record),
                ),
            )
            result = validate_job(job)
            if result.status == INVALID:
                raise InvalidJobError(record, result.reason or "invalid job")
            if job_id in seen_ids:
                raise InvalidJobError(record, f"duplicate job id {job_id!r}")
            seen_ids.add(job_id)
            jobs.append(job)
    return jobs
