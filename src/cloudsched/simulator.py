"""Discrete-event engine tying workload, priority, and queueing together,
plus report building, the affine waiting-time reference model, and the
replication bundle of reference curves."""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .domain import INVALID, SimConfig, validate_job
from .priority import (
    WindowStats,
    build_record,
    resultant_priority,
    service_level_satisfaction,
)
from .queueing import (
    Allocated,
    AllocationTable,
    QueueClass,
    ResourcePool,
    classify,
    release,
    try_allocate,
)
from .workload import generate_arrivals, sample_jobs, spec_from_sim

COMPLETION = "completion"
ARRIVAL = "arrival"
RETRY_ALLOCATION = "retry_allocation"

# Same-time events resolve in this order, then by job id: completions free
# capacity before new arrivals see the pool, and retries come last.
_KIND_PRECEDENCE = {COMPLETION: 0, ARRIVAL: 1, RETRY_ALLOCATION: 2}


def _id_sort_key(job_id) -> tuple:
    if isinstance(job_id, int):
        return (0, job_id, "")
    return (1, 0, str(job_id))


def _event_key(time: float, kind: str, job_id) -> tuple:
    return (time, _KIND_PRECEDENCE[kind], _id_sort_key(job_id))


class InsufficientSamplesError(ValueError):
    """Too few completed jobs in a class for a meaningful analytic comparison."""


@dataclass(frozen=True)
class JobRecord:
    """Everything observed about one job during a run."""

    job_id: int | str
    arrival: float
    due: float
    ack: float | None
    allocation: float | None
    start: float | None
    completion: float | None
    wait: float | None
    t_start: float | None
    demand_weight: float | None
    tp_score: int | None
    bp_score: float | None
    resultant: float | None
    rank: int | None
    class_index: int | None
    chain_position: int | None
    instance: str | None
    cost: float | None
    sls: float | None
    deadline_met: bool | None
    status: str
    retries: int
    reason: str | None

    def to_dict(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_dict(cls, d: dict) -> "JobRecord":
        return cls(**d)


@dataclass(frozen=True)
class SimReport:
    """Per-run metrics: job records, band waits, class satisfaction, totals."""

    mode: str
    seed: int
    jobs: tuple[JobRecord, ...]
    band_waits: dict = field(default_factory=dict)
    class_sls: dict = field(default_factory=dict)
    deadline_hit_rate: float = 0.0
    utilization: float = 0.0
    total_cost: float = 0.0
    completed: int = 0
    rejected: int = 0
    stuck: int = 0
    unstable: bool = False
    makespan: float = 0.0
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "jobs": [r.to_dict() for r in self.jobs],
            "band_waits": dict(self.band_waits),
            "class_sls": dict(self.class_sls),
            "deadline_hit_rate": self.deadline_hit_rate,
            "utilization": self.utilization,
            "total_cost": self.total_cost,
            "completed": self.completed,
            "rejected": self.rejected,
            "stuck": self.stuck,
            "unstable": self.unstable,
            "makespan": self.makespan,
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimReport":
        return cls(
            mode=d["mode"], seed=d["seed"],
            jobs=tuple(JobRecord.from_dict(j) for j in d["jobs"]),
            band_waits=dict(d["band_waits"]), class_sls=dict(d["class_sls"]),
            deadline_hit_rate=d["deadline_hit_rate"], utilization=d["utilization"],
            total_cost=d["total_cost"], completed=d["completed"], rejected=d["rejected"],
            stuck=d["stuck"], unstable=d["unstable"], makespan=d["makespan"],
            config=d["config"],
        )

    def to_json(self) -> str:
        """Compact JSON with sorted keys; `cloudsched simulate` writes it as the report file."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class _JobStream:
    """One job's allocation draws, from a generator built on the first draw.

    The stream depends only on (seed, job index), so paired native and
    resultant runs draw the same numbers whenever they draw.
    """

    __slots__ = ("seed", "index", "_rng")

    def __init__(self, seed: int, index: int):
        self.seed = seed
        self.index = index
        self._rng = None

    def random(self) -> float:
        if self._rng is None:
            self._rng = np.random.default_rng(
                np.random.SeedSequence(self.seed, spawn_key=(self.index,)))
        return self._rng.random()


class _JobState:
    __slots__ = ("job", "index", "stream", "record", "chain", "ack", "alloc_time", "start",
                 "completion", "retries", "pending_retry", "status",
                 "instance", "reason")

    def __init__(self, job, index, seed):
        self.job = job
        self.index = index
        self.stream = _JobStream(seed, index)
        self.record = None
        self.chain = None
        self.ack = None
        self.alloc_time = None
        self.start = None
        self.completion = None
        self.retries = 0
        self.pending_retry = False
        self.status = None
        self.instance = None
        self.reason = None


def _epoch_of(t: float, epoch_length: float) -> int:
    return int(t // epoch_length)


def window_stats_by_epoch(jobs, epoch_length: float, blank_time: float = 0.0) -> dict:
    """Group jobs into arrival epochs and compute normalization stats per epoch.

    run() passes only the jobs that pass validation: rejected jobs never reach
    the prioritizer.
    """
    buckets: dict[int, list] = {}
    for job in jobs:
        buckets.setdefault(_epoch_of(job.arrival_time, epoch_length), []).append(job)
    return {e: WindowStats.from_jobs(batch, blank_time) for e, batch in buckets.items()}


def deadline_qos(record: JobRecord) -> str:
    """Good when the job completed on or before arrival + due time, else Poor."""
    if record.completion is None:
        raise ValueError("job has not completed")
    return "Good" if record.completion <= record.arrival + record.due else "Poor"


def run(config: SimConfig, jobs, mode: str = "resultant") -> SimReport:
    """Simulate the full pipeline over a job list until drained.

    mode "resultant" applies the business boost above the threshold; "native"
    scores jobs by technical priority alone. Same config, jobs, and seed give
    a byte-identical report. Allocation draws come from one substream per job
    so paired native/resultant runs see common random numbers. Each job is
    validated once, up front: an invalid job is recorded as rejected with its
    reason and never enters the event queue. Duplicate job ids raise ValueError.
    """
    if mode not in ("native", "resultant"):
        raise ValueError(f"unknown mode {mode!r}")
    jobs = list(jobs)
    if not jobs:
        raise ValueError("jobs must be non-empty")

    states = [_JobState(job, i, config.seed) for i, job in enumerate(jobs)]
    seen_ids = set()
    admitted = []
    for st in states:
        if st.job.id in seen_ids:
            raise ValueError(f"duplicate job id {st.job.id!r}")
        seen_ids.add(st.job.id)
        result = validate_job(st.job)
        if result.status == INVALID:
            st.status = "rejected"
            st.reason = result.reason
        else:
            admitted.append(st)
    rejected = len(states) - len(admitted)

    n_classes = len(config.class_rates)
    apply_business = mode == "resultant"
    windows = window_stats_by_epoch([st.job for st in admitted], config.epoch_length,
                                    config.blank_time)

    pool = ResourcePool(config.num_vms, config.catalog)
    table = AllocationTable(config.allocation_bands)
    classes = [QueueClass(i + 1) for i in range(n_classes)]

    heap = [(_event_key(st.job.arrival_time, ARRIVAL, st.job.id), ARRIVAL, st.index)
            for st in admitted]
    heapq.heapify(heap)

    collected = completed = stuck = 0
    in_queue = in_service = 0
    busy_time = 0.0
    last_time = 0.0
    unstable = False

    def pump(now: float) -> None:
        nonlocal in_queue, in_service, stuck
        if not in_queue:
            return
        for qc in classes:
            if pool.is_full:
                return
            while len(qc) and not pool.is_full:
                index = qc.peek()
                st = states[index]
                if st.pending_retry:
                    break
                outcome = try_allocate(st.job, st.record.rank, pool, table, st.stream,
                                       clock=now, retry_interval=config.retry_interval)
                if isinstance(outcome, Allocated):
                    # Service starts at the allocation instant.
                    qc.pop()
                    in_queue -= 1
                    in_service += 1
                    st.instance = outcome.instance
                    st.alloc_time = st.start = now
                    heapq.heappush(heap, (_event_key(now + st.job.exec_time, COMPLETION,
                                                     st.job.id),
                                          COMPLETION, index))
                else:
                    st.retries += 1
                    if st.retries > config.max_retries:
                        qc.pop()
                        in_queue -= 1
                        st.status = "stuck"
                        st.reason = f"exceeded max_retries ({config.max_retries})"
                        stuck += 1
                        continue
                    st.pending_retry = True
                    heapq.heappush(heap, (_event_key(outcome.retry_at, RETRY_ALLOCATION,
                                                     st.job.id),
                                          RETRY_ALLOCATION, index))
                    break

    while heap:
        key, kind, index = heapq.heappop(heap)
        now = key[0]
        last_time = now
        st = states[index]
        if kind == ARRIVAL:
            st.ack = now
            collected += 1
            st.record = build_record(st.job, windows[_epoch_of(st.job.arrival_time,
                                                               config.epoch_length)],
                                     config, apply_business=apply_business)
            m = classify(st.record, n_classes)
            st.chain = (m, classes[m - 1].enqueue(index))
            in_queue += 1
            if in_queue > config.max_queue_length:
                unstable = True
                break
            pump(now)
        elif kind == RETRY_ALLOCATION:
            if st.status is not None:
                continue
            st.pending_retry = False
            pump(now)
        else:
            release(pool)
            st.completion = now
            st.status = "completed"
            completed += 1
            in_service -= 1
            busy_time += st.job.exec_time
            pump(now)
        # Conservation: every collected job is accounted for at every instant.
        assert collected == completed + stuck + in_queue + in_service

    records = []
    for st in states:
        rec = st.record
        is_done = st.status == "completed"
        wait = (st.start - st.job.arrival_time) if st.start is not None else None
        cost = (st.job.exec_time / 3600.0 * st.instance.cost) if is_done else None
        records.append(JobRecord(
            job_id=st.job.id,
            arrival=st.job.arrival_time,
            due=st.job.due_time,
            ack=st.ack,
            allocation=st.alloc_time,
            start=st.start,
            completion=st.completion,
            wait=wait,
            t_start=rec.t_start if rec else None,
            demand_weight=rec.demand_weight if rec else None,
            tp_score=rec.tp_score if rec else None,
            bp_score=rec.bp_score if rec else None,
            resultant=rec.resultant if rec else None,
            rank=rec.rank if rec else None,
            class_index=st.chain[0] if st.chain else None,
            chain_position=st.chain[1] if st.chain else None,
            instance=st.instance.name if st.instance else None,
            cost=cost,
            sls=service_level_satisfaction(rec.resultant) if rec else None,
            deadline_met=(st.completion <= st.job.arrival_time + st.job.due_time)
            if is_done else None,
            status=st.status or "pending",
            retries=st.retries,
            reason=st.reason,
        ))

    done = [r for r in records if r.status == "completed"]
    band_waits = {}
    for lo, hi, _p in table.bands:
        waits = [r.wait for r in done if lo <= r.rank <= hi]
        if waits:
            band_waits[f"{lo}-{hi}"] = sum(waits) / len(waits)
    class_sls = {}
    for i in range(1, n_classes + 1):
        scores = [r.sls for r in done if r.class_index == i]
        if scores:
            class_sls[str(i)] = sum(scores) / len(scores)
    hit_rate = (sum(1 for r in done if r.deadline_met) / len(done)) if done else 0.0
    utilization = busy_time / (config.num_vms * last_time) if last_time > 0 else 0.0
    total_cost = sum(r.cost for r in done)

    return SimReport(
        mode=mode,
        seed=config.seed,
        jobs=tuple(records),
        band_waits=band_waits,
        class_sls=class_sls,
        deadline_hit_rate=hit_rate,
        utilization=utilization,
        total_cost=total_cost,
        completed=completed,
        rejected=rejected,
        stuck=stuck,
        unstable=unstable,
        makespan=last_time,
        config=config.to_dict(),
    )


def waiting_time_model(priority: float, mode: str = "native") -> float:
    """Affine reference model of mean waiting hours versus priority rank value.

    Native-priority jobs wait 0.2 * priority + 2 hours over the 10..100 grid;
    boosted (resultant) jobs wait 0.2 * priority + 0.4 hours over 8..98.
    """
    if mode == "native":
        if not (10 <= priority <= 100):
            raise ValueError("native priority must be in [10,100]")
        return (2.0 * priority + 20.0) / 10.0
    if mode == "resultant":
        if not (8 <= priority <= 98):
            raise ValueError("resultant priority must be in [8,98]")
        return (2.0 * priority + 4.0) / 10.0
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ReplicationRow:
    """One point of a replication series; provenance is "model" or "simulated"."""

    series: str
    x: str
    value: float
    provenance: str


def replication_bundle(config: SimConfig) -> list[ReplicationRow]:
    """All reference curves plus a simulated waiting curve at the configured scale.

    Series: priority_boost (technical score -> boosted score at the configured
    cap), sls_native / sls_resultant, allocation_band (rank band -> admission
    probability), wait_model_native / wait_model_resultant (hours), and
    wait_simulated (mean simulated wait hours per rank band).
    """
    rows = []
    for tp in (80, 78, 76, 74, 72, 70, 60, 58):
        boosted = resultant_priority(tp, config.business_cap, config)
        rows.append(ReplicationRow("priority_boost", str(tp), boosted, "model"))
        rows.append(ReplicationRow("sls_native", str(tp),
                                   service_level_satisfaction(tp), "model"))
        rows.append(ReplicationRow("sls_resultant", str(tp),
                                   service_level_satisfaction(boosted), "model"))
    for lo, hi, p in AllocationTable(config.allocation_bands).bands:
        rows.append(ReplicationRow("allocation_band", f"{lo}-{hi}", p, "model"))
    for p in range(10, 101, 10):
        rows.append(ReplicationRow("wait_model_native", str(p),
                                   waiting_time_model(p, "native"), "model"))
    for p in range(8, 99, 10):
        rows.append(ReplicationRow("wait_model_resultant", str(p),
                                   waiting_time_model(p, "resultant"), "model"))
    spec = spec_from_sim(config)
    jobs = sample_jobs(spec, generate_arrivals(spec))
    report = run(config, jobs, mode="resultant")
    for band, wait in report.band_waits.items():
        rows.append(ReplicationRow("wait_simulated", band, wait / 3600.0, "simulated"))
    return rows


def compare_analytic(report: SimReport, class_moments, min_samples: int = 10_000) -> list[float]:
    """Relative error of simulated class waits against the closed-form prediction.

    class_moments is the (rate, mean service, mean squared service) list fed to
    the analytic formula, one entry per class in class order.
    """
    from .queueing import mg1_waiting

    analytic = mg1_waiting(class_moments)
    errors = []
    for i, w_analytic in enumerate(analytic, start=1):
        waits = [r.wait for r in report.jobs if r.status == "completed" and r.class_index == i]
        if len(waits) < min_samples:
            raise InsufficientSamplesError(
                f"class {i} has {len(waits)} completed jobs, need {min_samples}")
        w_sim = sum(waits) / len(waits)
        errors.append(abs(w_sim - w_analytic) / w_analytic)
    return errors
