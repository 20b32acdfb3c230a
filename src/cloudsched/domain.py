"""Core data types shared by the scheduling library: jobs, demands, catalog, configs."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from operator import attrgetter

import numpy as np


def jsonable(value):
    """value with dataclasses as dicts and tuples as lists: JSON-native types only."""
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class ResourceDemand:
    """Resource request of one job: processor count, memory (GB), storage (GB)."""

    processors: int
    memory: float
    storage: float


@dataclass(frozen=True)
class BusinessProfile:
    """Commercial attributes of a job: current order amount and customer relationship score."""

    order_amount: float
    relationship: float


@dataclass(frozen=True)
class Job:
    """One submitted task with timing, resource, and business attributes.

    Times are seconds on the simulation clock; due/exec/prep are relative to
    the job's arrival. Jobs are plain containers: construction never raises;
    validate_job gives the reason a job is rejected.
    """

    id: int | str
    arrival_time: float
    due_time: float
    exec_time: float
    prep_time: float
    demand: ResourceDemand
    business: BusinessProfile


# The numeric fields of a Job, as attribute paths, in the order of JobSet.values.
JOB_COLUMNS = ("arrival_time", "due_time", "exec_time", "prep_time", "demand.processors",
               "demand.memory", "demand.storage", "business.order_amount",
               "business.relationship")


def validate_job(job: Job) -> str | None:
    """The reason a job is rejected, or None when it is admitted: every numeric
    field must be finite and in range, and so must the start slack and the
    demand weight that the prioritizer derives from them in float arithmetic.
    A job that cannot meet its due time is admitted."""
    demand, business = job.demand, job.business
    values = (job.arrival_time, job.due_time, job.exec_time, job.prep_time, demand.processors,
              demand.memory, demand.storage, business.order_amount, business.relationship)
    if not all(map(math.isfinite, values)):
        name = next(n for n, v in zip(JOB_COLUMNS, values) if not math.isfinite(v))
        return f"{name.rpartition('.')[2]} must be finite"
    if job.arrival_time < 0:
        return "arrival_time must be >= 0"
    if job.due_time <= 0:
        return "due_time must be > 0"
    if job.exec_time <= 0:
        return "exec_time must be > 0"
    if job.prep_time < 0:
        return "prep_time must be >= 0"
    if demand.processors < 1:
        return "processors must be >= 1"
    if demand.memory <= 0:
        return "memory must be > 0"
    if demand.storage < 0:
        return "storage must be >= 0"
    if business.order_amount < 0:
        return "order_amount must be >= 0"
    if business.relationship < 0:
        return "relationship must be >= 0"
    _arrival, due, exec_time, prep, processors, memory, storage, _order, _rel = map(float, values)
    if not math.isfinite(due - exec_time - prep):
        return "start slack (due_time - exec_time - prep_time) must be finite"
    if not math.isfinite(processors + memory + storage):
        return "demand weight (processors + memory + storage) must be finite"
    return None


def first_repeated(ids: list) -> int | None:
    """The index of the first id that an earlier id repeats; None if they all differ."""
    if len(set(ids)) == len(ids):
        return None
    seen_ids = set()
    for i, job_id in enumerate(ids):
        if job_id in seen_ids:
            return i
        seen_ids.add(job_id)


class JobSet(Sequence):
    """A read-only sequence of jobs held as columns.

    ids holds the job ids, and values one list per JOB_COLUMNS field, in that
    order, with value i of each list belonging to job i. These lists are the
    source of truth: each value keeps the type it was given, so an int
    processor count or storage stays an int. columns, the float64 (9, n)
    array of the same values, is derived from them on first use. Indexing,
    and so iterating, builds a Job on demand, a slice gives a JobSet, and two
    sets are equal when their ids and values are.

    JobSet(jobs) takes Job objects; from_columns takes the lists themselves,
    as sample_jobs and load_jobs build them. The set also keeps what a
    caller prepares from it per config (prepared), so the lists must not
    change once the set is built.
    """

    __slots__ = ("ids", "values", "_columns", "_prepared")
    __hash__ = None

    def __init__(self, jobs=()):
        jobs = list(jobs)
        self.ids = [job.id for job in jobs]
        self.values = tuple(list(map(attrgetter(name), jobs)) for name in JOB_COLUMNS)
        self._columns = None
        self._prepared: list = []  # (prepare, config, result); a config need not be hashable

    @classmethod
    def from_columns(cls, ids: list, values, columns: np.ndarray | None = None) -> JobSet:
        """The set of the given lists, which it keeps and does not copy: ids,
        and one list per JOB_COLUMNS field, each as long as ids. columns, when
        given, is the float64 array np.array(values, dtype=float) would build,
        which the set then keeps in its place."""
        values = tuple(values)
        if len(values) != len(JOB_COLUMNS) or any(len(v) != len(ids) for v in values):
            raise ValueError(f"expected {len(JOB_COLUMNS)} value lists of {len(ids)} values")
        job_set = cls()
        job_set.ids, job_set.values = ids, values
        if columns is not None:
            job_set._columns = columns
            columns.flags.writeable = False
        return job_set

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return JobSet.from_columns(self.ids[index], [v[index] for v in self.values])
        (arrival, due, exec_time, prep, processors, memory, storage, order,
         relationship) = [v[index] for v in self.values]
        return Job(self.ids[index], arrival, due, exec_time, prep,
                   ResourceDemand(processors, memory, storage),
                   BusinessProfile(order, relationship))

    def __eq__(self, other):
        if not isinstance(other, JobSet):
            return NotImplemented
        return self.ids == other.ids and self.values == other.values

    def __repr__(self) -> str:
        return f"JobSet({list(self)!r})"

    @property
    def columns(self) -> np.ndarray:
        """The values as read-only float64 rows: field r of job i at [r, i]."""
        if self._columns is None:
            self._columns = np.array(self.values, dtype=float)
            self._columns.flags.writeable = False
        return self._columns

    def prepared(self, config, prepare):
        """prepare(config, self), computed by the first call with an equal
        config and the same prepare, and kept while the set lives."""
        for known_prepare, known_config, result in self._prepared:
            if known_prepare is prepare and known_config == config:
                return result
        result = prepare(config, self)
        self._prepared.append((prepare, config, result))
        return result


def start_and_weight(columns):
    """The start slack (due - exec - prep) and the demand weight (processors +
    memory + storage) of each job of a JobSet's columns, as float64 arrays:
    the operations of priority.compute_start_time and priority.demand_weight
    in the same order, so equal bit for bit when the job's values are floats.
    A result that overflows is +-inf, as Python's float arithmetic gives it,
    and one of non-finite values may be NaN, both without a warning."""
    _arrival, due, exec_time, prep, processors, memory, storage, _order, _rel = columns
    with np.errstate(over="ignore", invalid="ignore"):
        return due - exec_time - prep, processors + memory + storage


def valid_mask(columns: np.ndarray) -> np.ndarray:
    """validate_job over a JobSet's columns: True where a job is admitted
    (validate_job gives None).

    Each term negates the check validate_job makes, under the same rule that
    every numeric field, the start slack and the demand weight are finite.
    """
    arrival, due, exec_time, prep, processors, memory, storage, order, relationship = columns
    slack, weight = start_and_weight(columns)
    return (np.isfinite(columns).all(axis=0) & np.isfinite(slack) & np.isfinite(weight)
            & ~(arrival < 0) & ~(due <= 0) & ~(exec_time <= 0) & ~(prep < 0)
            & ~(processors < 1) & ~(memory <= 0) & ~(storage < 0)
            & ~(order < 0) & ~(relationship < 0))


@dataclass(frozen=True)
class ResourceCatalogEntry:
    """One instance type: name, cores, compute units, RAM (GB), arch bits, disk (GB), $/hour."""

    name: str
    cores: int
    ecus: float
    ram: float
    arch_bits: int
    disk: float
    cost: float

    def __post_init__(self):
        if self.cores <= 0 or self.ecus <= 0 or self.ram <= 0 or self.disk <= 0 or self.cost <= 0:
            raise ValueError(f"catalog entry {self.name!r}: all numeric fields must be > 0")
        if self.arch_bits not in (32, 64):
            raise ValueError(f"catalog entry {self.name!r}: arch_bits must be 32 or 64")

    def fits(self, demand: ResourceDemand) -> bool:
        """Whether this instance satisfies a resource demand."""
        return (self.cores >= demand.processors
                and self.ram >= demand.memory
                and self.disk >= demand.storage)


def default_catalog() -> tuple[ResourceCatalogEntry, ...]:
    """Default instance catalog: five classic EC2 shapes."""
    return (
        ResourceCatalogEntry("m1.small", 1, 1, 1.7, 32, 160, 0.1),
        ResourceCatalogEntry("m1.large", 2, 4, 7.5, 64, 850, 0.4),
        ResourceCatalogEntry("m1.xlarge", 4, 8, 15.0, 64, 1690, 0.8),
        ResourceCatalogEntry("c1.medium", 2, 5, 1.7, 32, 350, 0.2),
        ResourceCatalogEntry("c1.xlarge", 8, 20, 7.0, 64, 1690, 0.8),
    )


@dataclass(frozen=True)
class PriorityRecord:
    """All derived priority quantities for one job.

    Scores are on a 0..100 scale where higher is better; rank is the inverse
    1..100 scale where 1 is best.
    """

    t_start: float
    demand_weight: float
    tp_score: int
    bp_score: float
    resultant: float
    rank: int


# Default allocation bands: probability of resource allocation per rank decade.
# The first six bands are the standard curve; the last four continue the
# -0.1 per decade pattern so the whole 1..100 rank scale is covered.
DEFAULT_ALLOCATION_BANDS: tuple[tuple[int, int, float], ...] = (
    (1, 10, 1.0),
    (11, 20, 1.0),
    (21, 30, 0.9),
    (31, 40, 0.9),
    (41, 50, 0.8),
    (51, 60, 0.7),
    (61, 70, 0.6),
    (71, 80, 0.5),
    (81, 90, 0.4),
    (91, 100, 0.3),
)


class FieldError(ValueError):
    """A SimConfig invariant that fails; field names the field it checks,
    class_rates for their sum against arrival_rate."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.field = name


def _reject(failed: bool, name: str, message: str) -> None:
    if failed:
        raise FieldError(name, message)


def check_bands(bands) -> None:
    """Validate allocation bands, given in any order; a FieldError names the
    allocation_bands field.

    The bands must cover ranks 1..100 without gaps or overlaps, and their
    probabilities must lie in (0, 1] and not increase with rank.
    """
    name = "allocation_bands"
    _reject(not bands, name, "allocation_bands must be non-empty")
    ordered = sorted(bands, key=lambda b: b[0])
    _reject(ordered[0][0] != 1 or ordered[-1][1] != 100, name,
            "allocation_bands must cover ranks 1..100")
    prev_hi = 0
    prev_p = None
    for lo, hi, p in ordered:
        _reject(lo != prev_hi + 1, name,
                f"allocation_bands must not overlap or leave gaps (at rank {lo})")
        _reject(hi < lo, name, f"allocation band ({lo},{hi}) is empty")
        _reject(not (0.0 < p <= 1.0), name, f"allocation probability {p} not in (0, 1]")
        _reject(prev_p is not None and p > prev_p, name,
                "allocation probabilities must be non-increasing with rank")
        prev_hi, prev_p = hi, p


def _default_class_rates() -> tuple[float, ...]:
    return tuple(1.0 / 6 for _ in range(6))


@dataclass(frozen=True)
class SimConfig:
    """Full simulation configuration with sensible defaults.

    Defaults describe the reference scenario: 2000 tasks on 2500 VMs, fixed
    task timing (due 700 s, exec 650 s, prep 5 s), Poisson arrivals at 1 job/s
    split evenly over six priority classes, threshold 60, business boost
    capped at 10. The technical priority weighs a job's urgency by w_urgency
    and its resource demand by 1 - w_urgency.

    run() reads only len(class_rates), the number of priority classes; the
    rates need only be positive and sum to arrival_rate. allocation_bands may
    be given in any order.
    """

    num_tasks: int = 2000
    num_vms: int = 2500
    arrival_rate: float = 1.0
    class_rates: tuple[float, ...] = field(default_factory=_default_class_rates)
    beta: float = 60.0
    w_urgency: float = 0.7
    order_norm: float = 0.01
    relationship_norm: float = 0.0
    business_cap: float = 10.0
    seed: int = 1
    catalog: tuple[ResourceCatalogEntry, ...] = field(default_factory=default_catalog)
    allocation_bands: tuple[tuple[int, int, float], ...] = DEFAULT_ALLOCATION_BANDS
    retry_interval: float = 1.0
    due_time: float = 700.0
    exec_time: float = 650.0
    prep_time: float = 5.0
    epoch_length: float = 60.0
    max_retries: int = 1_000_000
    max_queue_length: int = 1_000_000

    def __post_init__(self):
        """Check every invariant in turn; the first that fails raises a
        FieldError naming its field."""
        for f in fields(self):
            _reject(f.type == "float" and not math.isfinite(getattr(self, f.name)), f.name,
                    f"{f.name} must be finite")
        _reject(self.num_tasks < 1, "num_tasks", "num_tasks must be >= 1")
        _reject(self.num_vms < 1, "num_vms", "num_vms must be >= 1")
        _reject(self.arrival_rate <= 0, "arrival_rate", "arrival_rate must be > 0")
        _reject(not self.class_rates or any(r <= 0 for r in self.class_rates), "class_rates",
                "class_rates must be a non-empty list of positive rates")
        total = math.fsum(self.class_rates)
        _reject(not math.isclose(total, self.arrival_rate, rel_tol=1e-9), "class_rates",
                f"class_rates must sum to arrival_rate: sum is {total!r}, "
                f"arrival_rate is {self.arrival_rate!r}")
        _reject(not (0.0 <= self.beta <= 100.0), "beta", "beta must be in [0,100]")
        _reject(not (0.0 <= self.w_urgency <= 1.0), "w_urgency", "w_urgency must be in [0,1]")
        _reject(self.business_cap < 0, "business_cap", "business_cap must be >= 0")
        _reject(self.seed < 0, "seed", "seed must be >= 0")
        _reject(self.seed >= 2**128, "seed", "seed must be < 2**128")  # a 128-bit Philox key
        _reject(not self.catalog, "catalog", "catalog must be non-empty")
        check_bands(self.allocation_bands)
        _reject(self.retry_interval <= 0, "retry_interval", "retry_interval must be > 0")
        _reject(self.epoch_length <= 0, "epoch_length", "epoch_length must be > 0")
        _reject(self.max_retries < 0, "max_retries", "max_retries must be >= 0")
        _reject(self.max_queue_length < 1, "max_queue_length",
                "max_queue_length must be >= 1")

    def to_dict(self) -> dict:
        return jsonable(self)
