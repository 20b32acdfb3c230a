"""Intake pipeline: job collection and acknowledgement, class gate, per-class
queues in chain order, probabilistic allocation against the instance catalog,
and closed-form waiting times for the non-preemptive priority single-server queue."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    DEFAULT_ALLOCATION_BANDS,
    INVALID,
    Job,
    PriorityRecord,
    ResourceCatalogEntry,
    ResourceDemand,
    validate_job,
)


class JobRejectedError(ValueError):
    """Raised by collect() when a job fails validation outright."""


class UnsatisfiableDemandError(ValueError):
    """No catalog entry can ever satisfy the job's resource demand."""


class UnstableError(ValueError):
    """Offered load meets or exceeds capacity; waiting times diverge."""

    def __init__(self, utilization: float):
        self.utilization = utilization
        super().__init__(f"unstable: utilization {utilization:g}")


@dataclass(frozen=True)
class Acknowledgement:
    """Receipt issued when a job enters the pipeline."""

    job_id: int | str
    ack_time: float


def collect(job: Job, clock: float) -> Acknowledgement:
    """Admit a job at the collection point; invalid jobs are rejected."""
    result = validate_job(job)
    if result.status == INVALID:
        raise JobRejectedError(result.reason or "invalid job")
    return Acknowledgement(job.id, clock)


def classify(record: PriorityRecord, n_classes: int) -> int:
    """Map a 1..100 rank onto one of n_classes queue classes (1 = best)."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if not (1 <= record.rank <= 100):
        raise ValueError("rank must be in [1,100]")
    return (record.rank * n_classes + 99) // 100


def class_service_rate(index: int, n_classes: int, mu_base: float = 1.0) -> float:
    """Nominal service rate of a class, scaled by its midpoint satisfaction score.

    Class 1 covers the best ranks and therefore gets the highest rate; rates
    are non-increasing in class index.
    """
    lo = (index - 1) * 100.0 / n_classes
    hi = index * 100.0 / n_classes
    mid_rank = (lo + hi) / 2.0
    score = min(max(101.0 - mid_rank, 0.0), 100.0)
    return mu_base * score / 100.0


@dataclass(frozen=True)
class AllocationTable:
    """Rank-band allocation probabilities covering ranks 1..100."""

    bands: tuple[tuple[int, int, float], ...] = DEFAULT_ALLOCATION_BANDS

    def __post_init__(self):
        ordered = tuple(sorted(self.bands, key=lambda b: b[0]))
        if not ordered or ordered[0][0] != 1 or ordered[-1][1] != 100:
            raise ValueError("bands must cover ranks 1..100")
        prev_hi, prev_p = 0, None
        for lo, hi, p in ordered:
            if lo != prev_hi + 1 or hi < lo:
                raise ValueError("bands must be contiguous and non-overlapping")
            if not (0.0 < p <= 1.0):
                raise ValueError(f"band probability {p} not in (0, 1]")
            if prev_p is not None and p > prev_p:
                raise ValueError("band probabilities must be non-increasing with rank")
            prev_hi, prev_p = hi, p
        object.__setattr__(self, "bands", ordered)

    def probability(self, rank: int) -> float:
        if not (1 <= rank <= 100):
            raise ValueError("rank must be in [1,100]")
        for lo, hi, p in self.bands:
            if lo <= rank <= hi:
                return p
        raise AssertionError("bands cover [1,100] by construction")


class QueueClass:
    """One priority class queue, kept in chain order (position within class)."""

    def __init__(self, index: int, service_rate: float):
        self.index = index
        self.service_rate = service_rate
        self._entries: list[tuple[int, object]] = []
        self._next_n = 1

    def __len__(self) -> int:
        return len(self._entries)

    def enqueue(self, item) -> int:
        """Append an item with the next within-class position; returns that position."""
        n = self._next_n
        self._next_n += 1
        self.push(n, item)
        return n

    def push(self, n: int, item) -> None:
        """Insert an item at an explicit chain position, keeping the queue sorted."""
        bisect.insort(self._entries, (n, item), key=lambda e: e[0])
        self._next_n = max(self._next_n, n + 1)

    def peek(self):
        if not self._entries:
            raise IndexError("queue class is empty")
        return self._entries[0][1]

    def pop(self):
        if not self._entries:
            raise IndexError("queue class is empty")
        return self._entries.pop(0)[1]


@dataclass(frozen=True)
class Allocated:
    """Successful allocation outcome: the granted instance type."""

    instance: ResourceCatalogEntry


@dataclass(frozen=True)
class Deferred:
    """Failed allocation outcome: when to try again."""

    retry_at: float


class ResourcePool:
    """Counting pool of identical VM slots plus the instance catalog.

    blank_time_feedback estimates the extra wait jobs experience for resources:
    zero whenever there is spare capacity, otherwise a decaying average of the
    recent defer-to-allocate delays observed under saturation.
    """

    def __init__(self, capacity: int, catalog):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.catalog = tuple(catalog)
        self.in_use = 0
        self._delay_ewma = 0.0

    @property
    def is_full(self) -> bool:
        return self.in_use >= self.capacity

    @property
    def blank_time_feedback(self) -> float:
        if self.in_use < self.capacity:
            return 0.0
        return self._delay_ewma

    def record_saturation_delay(self, delay: float) -> None:
        """Fold one defer-to-allocate delay into the feedback estimate (decay 0.9)."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self._delay_ewma = 0.9 * self._delay_ewma + 0.1 * delay


def cheapest_fit(catalog, demand: ResourceDemand) -> ResourceCatalogEntry | None:
    """Cheapest catalog entry satisfying the demand; None if nothing fits."""
    best = None
    for entry in catalog:
        if entry.fits(demand) and (best is None or entry.cost < best.cost):
            best = entry
    return best


def try_allocate(job: Job, rank: int, pool: ResourcePool, table: AllocationTable,
                 rng: np.random.Generator, clock: float = 0.0,
                 retry_interval: float = 1.0) -> Allocated | Deferred:
    """One allocation attempt for the job.

    A full pool always defers. Otherwise admission is a Bernoulli draw at the
    rank's band probability; on success the cheapest fitting instance is
    granted and the pool occupancy incremented, on failure the job is deferred
    until clock + retry_interval. A band probability of 1 always admits, so
    it draws nothing from rng.
    """
    instance = cheapest_fit(pool.catalog, job.demand)
    if instance is None:
        raise UnsatisfiableDemandError(
            f"job {job.id!r}: demand {job.demand} exceeds every catalog entry")
    if pool.is_full:
        return Deferred(retry_at=clock + retry_interval)
    p = table.probability(rank)
    if p == 1.0 or rng.random() < p:
        pool.in_use += 1
        return Allocated(instance=instance)
    return Deferred(retry_at=clock + retry_interval)


def release(pool: ResourcePool, instance: ResourceCatalogEntry | None = None) -> None:
    """Return one slot to the pool."""
    if pool.in_use < 1:
        raise ValueError("release on empty pool")
    pool.in_use -= 1


def mg1_waiting(classes) -> list[float]:
    """Mean queueing delay per class for a non-preemptive priority single-server queue.

    classes is a sequence of (arrival_rate, mean_service, mean_service_sq),
    ordered best class first. The residual work term is half the summed
    rate-weighted second moments; class i's delay divides it by the unserved
    fractions at and above its level.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("classes must be non-empty")
    for rate, es, es2 in classes:
        if rate <= 0 or es <= 0 or es2 <= 0:
            raise ValueError("rates and service moments must be > 0")
    total_util = math.fsum(rate * es for rate, es, _ in classes)
    if total_util >= 1.0:
        raise UnstableError(total_util)
    residual = 0.5 * math.fsum(rate * es2 for rate, _, es2 in classes)
    waits = []
    cumulative = 0.0
    for rate, es, _ in classes:
        prev = cumulative
        cumulative += rate * es
        waits.append(residual / ((1.0 - prev) * (1.0 - cumulative)))
    return waits
