"""Reproducible synthetic workloads (Poisson arrivals, attribute sampling) and job-file I/O."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import (
    INVALID,
    BusinessProfile,
    Job,
    ResourceCatalogEntry,
    ResourceDemand,
    SimConfig,
    default_catalog,
    validate_job,
)


class InvalidRateError(ValueError):
    """Raised when an arrival rate is not strictly positive."""


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
    """Everything needed to generate one reproducible workload."""

    rate: float = 1.0
    class_rates: tuple[float, ...] = field(default_factory=lambda: tuple(1.0 / 6 for _ in range(6)))
    num_tasks: int = 2000
    due_dist: Distribution = Distribution("fixed", (700.0,))
    exec_dist: Distribution = Distribution("fixed", (650.0,))
    prep_dist: Distribution = Distribution("fixed", (5.0,))
    catalog: tuple[ResourceCatalogEntry, ...] = field(default_factory=default_catalog)
    demand_weights: tuple[float, ...] | None = None
    order_range: tuple[float, float] = (0.0, 1000.0)
    relationship_range: tuple[float, float] = (0.0, 100.0)
    seed: int = 1

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        total = math.fsum(self.class_rates)
        if not math.isclose(total, self.rate, rel_tol=1e-9):
            raise ValueError(f"class_rates must sum to rate: sum is {total!r}, rate is {self.rate!r}")
        if self.demand_weights is not None and len(self.demand_weights) != len(self.catalog):
            raise ValueError("demand_weights length must match catalog length")
        if self.order_range[0] > self.order_range[1] or self.order_range[0] < 0:
            raise ValueError("order_range must be (lo, hi) with 0 <= lo <= hi")
        if self.relationship_range[0] > self.relationship_range[1] or self.relationship_range[0] < 0:
            raise ValueError("relationship_range must be (lo, hi) with 0 <= lo <= hi")


def spec_from_sim(cfg: SimConfig) -> WorkloadSpec:
    """Build the fixed-attribute workload spec matching a simulation config."""
    return WorkloadSpec(
        rate=cfg.arrival_rate,
        class_rates=cfg.class_rates,
        num_tasks=cfg.num_tasks,
        due_dist=Distribution("fixed", (cfg.due_time,)),
        exec_dist=Distribution("fixed", (cfg.exec_time,)),
        prep_dist=Distribution("fixed", (cfg.prep_time,)),
        catalog=cfg.catalog,
        seed=cfg.seed,
    )


def generate_arrivals(spec: WorkloadSpec) -> np.ndarray:
    """Poisson arrival times: cumulative i.i.d. exponential gaps with mean 1/rate.

    Same spec and seed give a bit-exact identical array.
    """
    if spec.rate <= 0:
        raise InvalidRateError("arrival rate must be > 0")
    rng = _stream(spec.seed, "arrivals")
    gaps = rng.exponential(1.0 / spec.rate, spec.num_tasks)
    return np.cumsum(gaps)


def sample_jobs(spec: WorkloadSpec, arrivals) -> list[Job]:
    """Draw one job per arrival time from the spec's attribute distributions."""
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.size == 0:
        raise ValueError("arrivals must be non-empty")
    n = arrivals.size
    due = spec.due_dist.sample(_stream(spec.seed, "due"), n)
    exec_times = spec.exec_dist.sample(_stream(spec.seed, "exec"), n)
    prep = spec.prep_dist.sample(_stream(spec.seed, "prep"), n)

    rng_demand = _stream(spec.seed, "demand")
    if spec.demand_weights is not None:
        w = np.asarray(spec.demand_weights, dtype=float)
        probs = w / w.sum()
    else:
        probs = None
    shape_idx = rng_demand.choice(len(spec.catalog), size=n, p=probs)

    rng_business = _stream(spec.seed, "business")
    orders = rng_business.uniform(spec.order_range[0], spec.order_range[1], n)
    relationships = rng_business.uniform(spec.relationship_range[0],
                                         spec.relationship_range[1], n)

    jobs = []
    for i in range(n):
        entry = spec.catalog[int(shape_idx[i])]
        jobs.append(Job(
            id=i,
            arrival_time=float(arrivals[i]),
            due_time=float(due[i]),
            exec_time=float(exec_times[i]),
            prep_time=float(prep[i]),
            demand=ResourceDemand(entry.cores, entry.ram, entry.disk),
            business=BusinessProfile(float(orders[i]), float(relationships[i])),
        ))
    return jobs


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
    try:
        return int(value)
    except ValueError:
        raise ParseError(record, f"field {name!r}: cannot parse {value!r} as an integer") from None


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
            job_id: int | str = int(raw_id) if raw_id.lstrip("-").isdigit() else raw_id
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
