"""Discrete-event engine tying workload, priority, and queueing together,
plus report building, the affine waiting-time reference model, and the
replication bundle of reference curves."""

from __future__ import annotations

import functools
import heapq
import json
import math
import operator
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from .domain import INVALID, SimConfig, validate_job
from .priority import (
    WindowStats,
    priority_columns,
    resultant_priority,
    service_level_satisfaction,
)
from .queueing import (
    Allocated,
    AllocationTable,
    QueueClass,
    ResourcePool,
    cheapest_fit,
    classify,
    release,
    try_allocate,
)
from .workload import WorkloadSpec, generate_arrivals, sample_jobs

# Event kinds, in the order same-time events resolve; remaining ties go by job
# id. Completions free capacity before new arrivals see the pool, and retries
# come last.
COMPLETION, ARRIVAL, RETRY_ALLOCATION = 0, 1, 2


def _id_sort_key(job_id) -> tuple:
    if isinstance(job_id, int):
        return (0, job_id, "")
    return (1, 0, str(job_id))


# The JobRecord fields from ack to deadline_met of a job that never arrived.
_UNSEEN = (None,) * 17


class InsufficientSamplesError(ValueError):
    """Too few completed jobs in a class for a meaningful analytic comparison."""


@dataclass
class JobRecord:
    """Everything observed about one job during a run.

    Not frozen: a frozen dataclass sets each of the 23 fields through
    object.__setattr__, which made building a run's records about 6x slower.
    """

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

    @classmethod
    def from_dict(cls, d: dict) -> "JobRecord":
        return cls(**d)


# Job records are written in blocks of this many rows: each distinct value of
# a block is formatted once, and only one block's text is held at a time.
_BLOCK_ROWS = 1024
# JobRecord fields in the order json.dumps(sort_keys=True) writes them.
_JOB_FIELDS = tuple(sorted(f.name for f in fields(JobRecord)))
_job_values = operator.attrgetter(*_JOB_FIELDS)
_ROW_TEMPLATE = "{%s}" % ",".join(encode_basestring_ascii(name) + ":%s" for name in _JOB_FIELDS)
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _float_text(value: float) -> str:
    """A float as json.dumps writes it: its repr, NaN, Infinity or -Infinity."""
    if value - value == 0.0:
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


class _Texts(dict):
    """JSON texts of one type's values, keyed by value.

    format_column() formats each value of a column that is not stored yet
    once and stores it. None is never stored: it is written as null on each
    lookup, so .get(value, value) gives None back as itself.
    """

    __slots__ = ("_format",)

    def __init__(self, format_value):
        super().__init__()
        self._format = format_value

    def _storable(self, values):
        return values

    def format_column(self, column) -> list:
        new = set(column).difference(self)
        new.discard(None)
        new = self._storable(new)
        self.update(zip(new, map(self._format, new)))
        return list(map(self.__getitem__, column))

    def __missing__(self, value):
        return "null" if value is None else self._format(value)


class _FloatTexts(_Texts):
    """Zeros and non-finite floats are formatted on every lookup and never
    stored: 0.0 and -0.0 are equal keys, and a NaN key is found only by
    identity."""

    __slots__ = ()

    def __init__(self):
        super().__init__(float.__repr__)

    def _storable(self, values):
        return list(filter(None, filter(math.isfinite, values)))

    def __missing__(self, value):
        return "null" if value is None else _float_text(value)


def _format_block(records) -> tuple[str, dict]:
    """The JSON text of a block of job records, rows joined by commas, and the
    block's columns by field name with each finite float and int replaced by
    its JSON text (a CSV writer writes the same text for them).

    A column whose values other than None share one type is formatted through
    that type's table; a column that mixes types is encoded value by value.
    """
    nulls = _Texts(None)
    nulls[None] = "null"  # a column of None only: every lookup finds it
    tables = {float: _FloatTexts(), int: _Texts(int.__repr__),
              str: _Texts(encode_basestring_ascii), bool: _Texts(_bool_text),
              type(None): nulls}
    texts = []
    columns = {}
    for name, column in zip(_JOB_FIELDS, zip(*map(_job_values, records))):
        kinds = set(map(type, column))
        if len(kinds) == 2:
            kinds.discard(type(None))
        kind = kinds.pop() if len(kinds) == 1 else None
        table = tables.get(kind)
        texts.append(list(map(_encode, column)) if table is None
                     else table.format_column(column))
        columns[name] = (list(map(table.get, column, column)) if kind is float or kind is int
                         else column)
    return ",".join(map(_ROW_TEMPLATE.__mod__, zip(*texts))), columns


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

    def json_chunks(self):
        """The to_json() text in pieces, each with the job columns it holds.

        Yields (text, columns): the fields before "jobs", then one piece per
        block of _BLOCK_ROWS job records with its columns from _format_block,
        then the fields after "jobs"; columns is None outside the job blocks.
        """
        rest = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "jobs"}
        head = _encode({k: v for k, v in rest.items() if k < "jobs"})
        tail = _encode({k: v for k, v in rest.items() if k > "jobs"})
        yield head[:-1] + ',"jobs":[', None
        for start in range(0, len(self.jobs), _BLOCK_ROWS):
            text, columns = _format_block(self.jobs[start:start + _BLOCK_ROWS])
            yield ("," + text if start else text), columns
        yield "]," + tail[1:], None

    def to_json(self) -> str:
        """Compact JSON with sorted keys, as json.dumps(sort_keys=True,
        separators=(",", ":")) writes the report's fields; every job record is
        an object of its fields. `cloudsched simulate` streams the same text,
        block by block (json_chunks), to the report file and adds a newline.
        """
        return "".join(text for text, _columns in self.json_chunks())


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# multiplier of its PCG64 generator (PCG_DEFAULT_MULTIPLIER_128).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _job_streams(seed: int, indices) -> list:
    """One allocation stream per job index, equal draw for draw to
    np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,))).

    The stream depends only on (seed, job index), so paired native and
    resultant runs draw the same numbers whenever they draw. The SeedSequence
    hash runs once for all indices, on uint32 arrays whose arithmetic wraps
    mod 2**32 as numpy's does; only the last entropy word, the index, differs
    between jobs. TestJobStreams in tests/test_simulator.py checks every stream
    against numpy, which stays the definition.
    """
    entropy = []
    while True:  # the seed's little-endian 32-bit words; 0 gives [0]
        entropy.append(np.array([seed & _MASK32], np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy += [np.zeros(1, np.uint32)] * (4 - len(entropy))  # padded for the spawn key
    entropy.append(np.asarray(indices, np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    # SeedSequence.mix_entropy: hash the first four words into the pool, mix
    # every pool word into every other, then mix in the remaining words.
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # SeedSequence.generate_state(4, np.uint64): eight 32-bit words from the
    # cycled pool, paired little-endian into 64-bit words.
    state = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ value >> 16).astype(np.uint64))
    words = [(state[2 * j] | state[2 * j + 1] << 32).tolist() for j in range(4)]
    return list(map(_PCG64Stream, zip(*words)))


class _PCG64Stream:
    """numpy's PCG64 (128-bit LCG, XSL-RR output) from four 64-bit seed words.

    Seeding waits for the first draw, because most jobs never draw.
    """

    __slots__ = ("_words", "_state", "_inc")

    def __init__(self, words: tuple):
        self._words = words
        self._state = None

    def random(self) -> float:
        """The next double in [0, 1), as Generator.random() computes it."""
        state = self._state
        if state is None:  # numpy's pcg64_set_seed
            w0, w1, w2, w3 = self._words
            self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            state = ((w0 << 64 | w1) + self._inc) * _PCG64_MULT + self._inc
        state = (state * _PCG64_MULT + self._inc) & _MASK128
        self._state = state
        low = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        out = (low >> rot | low << (64 - rot)) & _MASK64
        return (out >> 11) * (1.0 / 9007199254740992.0)


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


def run(config: SimConfig, jobs, mode: str = "resultant") -> SimReport:
    """Simulate the full pipeline over a job list until drained.

    mode "resultant" applies the business boost above the threshold; "native"
    scores jobs by technical priority alone. Same config, jobs, and seed give
    a byte-identical report. Allocation draws come from one stream per job,
    numpy's PCG64 seeded by SeedSequence(seed, spawn_key=(job index,)) and
    computed without building a numpy Generator (see _job_streams), so paired
    native/resultant runs see common random numbers. Each job is validated
    once, up front: an invalid job is recorded as rejected with its reason and
    never enters the event queue. Duplicate job ids raise ValueError.
    Priorities are computed up front too, from each job's epoch window (see
    window_stats_by_epoch), so an arrival only classifies and enqueues the job.
    """
    if mode not in ("native", "resultant"):
        raise ValueError(f"unknown mode {mode!r}")
    jobs = list(jobs)
    if not jobs:
        raise ValueError("jobs must be non-empty")

    reasons: list = [None] * len(jobs)
    seen_ids = set()
    admitted = []
    for i, job in enumerate(jobs):
        if job.id in seen_ids:
            raise ValueError(f"duplicate job id {job.id!r}")
        seen_ids.add(job.id)
        result = validate_job(job)
        if result.status == INVALID:
            reasons[i] = result.reason
        else:
            admitted.append(i)
    rejected = len(jobs) - len(admitted)

    windows = window_stats_by_epoch([jobs[i] for i in admitted], config.epoch_length,
                                    config.blank_time)
    # Admitted jobs are numbered k = 0.. in job id order, so k breaks the ties
    # between same-time events of the same kind.
    order = sorted(admitted, key=lambda i: _id_sort_key(jobs[i].id))
    adm = [jobs[i] for i in order]
    t_start, weight, tp, bp, resultant, rank = priority_columns(
        adm, [windows[_epoch_of(job.arrival_time, config.epoch_length)] for job in adm],
        config, apply_business=mode == "resultant")

    pool = ResourcePool(config.num_vms, config.catalog)
    table = AllocationTable(config.allocation_bands)
    band_probability = [None] + [table.probability(r) for r in range(1, 101)]
    fit = functools.cache(functools.partial(cheapest_fit, pool.catalog))
    fits = [fit(job.demand) for job in adm]
    probs = [band_probability[r] for r in rank]
    streams = _job_streams(config.seed, order)
    n_classes = len(config.class_rates)
    classes = [QueueClass(m + 1) for m in range(n_classes)]

    m_jobs = len(adm)
    start: list = [None] * m_jobs
    completion: list = [None] * m_jobs
    chain: list = [None] * m_jobs
    instance: list = [None] * m_jobs
    status: list = [None] * m_jobs
    stuck_reason: list = [None] * m_jobs
    retries = [0] * m_jobs
    pending_retry = [False] * m_jobs

    # Arrivals are known up front: a sorted list merged with the heap, which
    # holds only completions and retries. Events are (time, kind, k).
    arrivals = sorted((job.arrival_time, ARRIVAL, k) for k, job in enumerate(adm))
    heap: list = []
    heappush, heappop = heapq.heappush, heapq.heappop
    capacity, retry_interval = pool.capacity, config.retry_interval
    max_retries, max_queue_length = config.max_retries, config.max_queue_length

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
            while qc.entries and pool.in_use < capacity:
                k = qc.peek()
                if pending_retry[k]:
                    break
                outcome = try_allocate(adm[k], fits[k], probs[k], pool, streams[k],
                                       now, retry_interval)
                if isinstance(outcome, Allocated):
                    # Service starts at the allocation instant.
                    qc.pop()
                    in_queue -= 1
                    in_service += 1
                    instance[k] = outcome.instance
                    start[k] = now
                    heappush(heap, (now + adm[k].exec_time, COMPLETION, k))
                else:
                    retries[k] += 1
                    if retries[k] > max_retries:
                        qc.pop()
                        in_queue -= 1
                        status[k] = "stuck"
                        stuck_reason[k] = f"exceeded max_retries ({max_retries})"
                        stuck += 1
                        continue
                    pending_retry[k] = True
                    heappush(heap, (outcome.retry_at, RETRY_ALLOCATION, k))
                    break
            if pool.in_use >= capacity:
                return

    next_arrival = 0
    while True:
        if next_arrival < m_jobs and (not heap or arrivals[next_arrival] < heap[0]):
            now, kind, k = arrivals[next_arrival]
            next_arrival += 1
        elif heap:
            now, kind, k = heappop(heap)
        else:
            break
        last_time = now
        if kind == ARRIVAL:
            collected += 1
            m = classify(rank[k], n_classes)
            chain[k] = (m, classes[m - 1].enqueue(k))
            in_queue += 1
            if in_queue > max_queue_length:
                unstable = True
                break
            pump(now)
        elif kind == RETRY_ALLOCATION:
            if status[k] is not None:
                continue
            pending_retry[k] = False
            pump(now)
        else:
            release(pool)
            completion[k] = now
            status[k] = "completed"
            completed += 1
            in_service -= 1
            busy_time += adm[k].exec_time
            pump(now)
        # Conservation: every collected job is accounted for at every instant.
        assert collected == completed + stuck + in_queue + in_service

    k_of = [None] * len(jobs)
    for k, i in enumerate(order):
        k_of[i] = k
    records = []
    for i, job in enumerate(jobs):
        k = k_of[i]
        c = None if k is None else chain[k]
        if c is None:
            # Rejected, or yet to arrive when an unstable run stopped: no
            # priority either.
            records.append(JobRecord(job.id, job.arrival_time, job.due_time, *_UNSEEN,
                                     "pending" if k is not None else "rejected", 0,
                                     reasons[i]))
            continue
        s = start[k]
        inst = instance[k]
        is_done = status[k] == "completed"
        records.append(JobRecord(
            job.id, job.arrival_time, job.due_time,
            job.arrival_time, s, s, completion[k],  # ack, allocation, start, completion
            None if s is None else s - job.arrival_time,  # wait
            t_start[k], weight[k], tp[k], bp[k], resultant[k], rank[k],
            c[0], c[1], inst and inst.name,  # class, chain position, instance
            job.exec_time / 3600.0 * inst.cost if is_done else None,  # cost
            resultant[k],  # sls, numerically the resultant score
            completion[k] <= job.arrival_time + job.due_time if is_done else None,
            status[k] or "pending", retries[k], stuck_reason[k]))

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
    jobs = sample_jobs(config, WorkloadSpec.fixed(config), generate_arrivals(config))
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
