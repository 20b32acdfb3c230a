"""Intake pipeline pieces that run() composes: the class gate, per-class
queues in chain order, the cheapest catalog fit of a demand, the admission
test of one allocation attempt, and closed-form waiting times for the
non-preemptive priority single-server queue. run() itself holds the count of
busy VMs, each rank's allocation band and the check that every job fits."""

from __future__ import annotations

import math
from collections import deque

from .domain import ResourceCatalogEntry, ResourceDemand


class UnsatisfiableDemandError(ValueError):
    """No catalog entry can ever satisfy the job's resource demand."""


class UnstableError(ValueError):
    """Offered load meets or exceeds capacity; waiting times diverge."""

    def __init__(self, utilization: float):
        self.utilization = utilization
        super().__init__(f"unstable: utilization {utilization:g}")


def classify(rank: int, n_classes: int) -> int:
    """Map a 1..100 rank onto one of n_classes queue classes (1 = best)."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if not (1 <= rank <= 100):
        raise ValueError("rank must be in [1,100]")
    return (rank * n_classes + 99) // 100


class QueueClass:
    """One priority class queue, kept in chain order (position within class).

    Positions are handed out in increasing order, so chain order is FIFO.
    entries holds the queued items, first in chain order; it is read-only
    outside this class, so an empty queue tests false without a method call.
    """

    def __init__(self):
        self.entries: deque = deque()
        self._next_n = 1

    def enqueue(self, item) -> int:
        """Append an item with the next within-class position; returns that position."""
        n = self._next_n
        self._next_n += 1
        self.entries.append(item)
        return n

    def peek(self):
        """The first item in chain order; IndexError when empty."""
        return self.entries[0]

    def pop(self):
        """Remove and return the first item in chain order; IndexError when empty."""
        return self.entries.popleft()


def cheapest_fit(catalog, demand: ResourceDemand) -> ResourceCatalogEntry | None:
    """Cheapest catalog entry satisfying the demand; None if nothing fits."""
    best = None
    for entry in catalog:
        if entry.fits(demand) and (best is None or entry.cost < best.cost):
            best = entry
    return best


def try_allocate(p: float, u: float | None) -> bool:
    """One allocation attempt, made while a VM is free: whether the job is
    admitted, with p the admission probability of its rank band.

    The job is admitted when p = 1 or when u, its allocation draw in [0, 1),
    is below p; u is None at p = 1, where nothing is drawn (run() defines the
    draws). run() has checked that the catalog fits every job, and grants an
    admitted job its cheapest fit.
    """
    if p == 1.0 or u < p:  # a bool, where u < p alone is numpy's for a numpy draw
        return True
    return False


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
