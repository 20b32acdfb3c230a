"""Discrete-event engine tying workload, priority, and queueing together,
plus report building, the affine waiting-time reference model, and the
replication bundle of reference curves.

run() takes its jobs as a JobSet, which holds the per-job inputs that do
not depend on the mode, prepared by the first run over the set with a config
in one pass over numpy columns of the jobs' numeric fields
(domain.job_columns): the validity mask, the epoch windows, the id order,
the technical and business scores and the cheapest fits. A paired native
and resultant run prepares them once; each run adds the resultant, rank,
class and admission probability of its mode. The event loop keeps each
job's state in per-field lists indexed by the job's place in id order, and
its SimReport holds the job records as columns, one list per JobRecord
field. A report is written in schema 2 as those columns: compact JSON with
sorted keys, one call to the C JSON encoder per column (SimReport.json_texts).
"""

from __future__ import annotations

import functools
import heapq
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .domain import SimConfig, job_columns, valid_mask, validate_job
from .priority import (
    resultant_columns,
    resultant_priority,
    service_level_satisfaction,
    start_and_weight,
    technical_columns,
)
from .queueing import (
    AllocationTable,
    QueueClass,
    ResourcePool,
    cheapest_fit,
    classify,
    try_allocate,
)
from .workload import WorkloadSpec, generate_arrivals, sample_jobs

# Event kinds, in the order same-time events resolve; remaining ties go by job
# id. Completions free capacity before new arrivals see the pool, and retries
# come last.
COMPLETION, ARRIVAL, RETRY_ALLOCATION = 0, 1, 2


class InsufficientSamplesError(ValueError):
    """Too few completed jobs in a class for a meaningful analytic comparison."""


@dataclass
class JobRecord:
    """Everything observed about one job during a run.

    A report keeps its job records as columns (SimReport.columns); a
    JobRecord is one row of them, built when SimReport.jobs is read. ack is
    the arrival time of a job that reached the queue, None for one that did
    not. Not frozen: a frozen dataclass sets each field through
    object.__setattr__, which made building a run's records about 6x slower.
    """

    job_id: int | str
    arrival: float
    due: float
    ack: float | None
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
    deadline_met: bool | None
    status: str
    retries: int
    reason: str | None

    # perfbench/sample.py's full check reads this alias.
    @property
    def allocation(self) -> float | None:
        """The allocation instant, which is the start of service."""
        return self.start


# JobRecord fields in declaration order, the order of its constructor's arguments.
_RECORD_FIELDS = tuple(f.name for f in fields(JobRecord))
# JobRecord fields in the order json.dumps(sort_keys=True) writes them.
_JOB_FIELDS = tuple(sorted(_RECORD_FIELDS))
# The keys of a schema 1 job record: the JobRecord fields, allocation and sls.
_V1_KEYS = {*_RECORD_FIELDS, "allocation", "sls"}
# The report file's schema: 2 writes "jobs" as one list per JobRecord field.
_SCHEMA = 2
# The types of the values each JobRecord field may hold in a report file, from
# its annotation: a float field also holds ints (a job's times may be ints),
# and no field but a bool field holds a bool.
_ANNOTATED_TYPES = {"int": {int}, "float": {float, int}, "str": {str}, "bool": {bool},
                    "None": {type(None)}}
_FIELD_TYPES = {f.name: f.type for f in fields(JobRecord)}
_VALUE_TYPES = {name: frozenset().union(*map(_ANNOTATED_TYPES.get, tp.split(" | ")))
                for name, tp in _FIELD_TYPES.items()}
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class SimReport:
    """Per-run metrics: job records, band waits, class satisfaction, totals.

    columns maps each JobRecord field name to the list of its values, one
    per job in the order of the run's job list. The JobRecords themselves are
    built only when jobs is read.
    """

    mode: str
    seed: int
    columns: dict
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

    @functools.cached_property
    def jobs(self) -> tuple[JobRecord, ...]:
        """The job records, one per row of columns."""
        return tuple(map(JobRecord, *map(self.columns.__getitem__, _RECORD_FIELDS)))

    @classmethod
    def from_dict(cls, d: dict) -> "SimReport":
        """The report of a parsed report file: schema 2, or schema 1, which has
        no "schema" key and holds "jobs" as one object per job record. Any
        other schema or mode, and a job value whose type its JobRecord field
        does not allow, raise ValueError."""
        if d["mode"] not in ("native", "resultant"):
            raise ValueError(f"unknown mode {d['mode']!r}")
        jobs = d["jobs"]
        schema = d.get("schema")
        if schema is None:
            columns = {name: [row[name] for row in jobs] for name in _RECORD_FIELDS}
            if any(row.keys() != _V1_KEYS for row in jobs):
                raise ValueError("a job record has keys that are not schema 1 fields")
        elif schema == _SCHEMA:
            columns = {name: jobs[name] for name in _RECORD_FIELDS}
            n = len(columns["job_id"])
            if len(jobs) != len(columns) or not all(
                    isinstance(column, list) and len(column) == n for column in columns.values()):
                raise ValueError("jobs must hold one list per JobRecord field, all of one length")
        else:
            raise ValueError(f"unknown report schema {schema!r}")
        for name, column in columns.items():
            allowed = _VALUE_TYPES[name]
            if not set(map(type, column)) <= allowed:
                value = next(v for v in column if type(v) not in allowed)
                raise ValueError(f"column {name!r} holds {value!r}, not {_FIELD_TYPES[name]}")
        values = {f.name: d[f.name] for f in fields(cls) if f.name != "columns"}
        values.update(band_waits=dict(values["band_waits"]),
                      class_sls=dict(values["class_sls"]))
        return cls(columns=columns, **values)

    def json_texts(self):
        """The to_json() text in pieces: the fields before "jobs", each job
        column's key and list, each list encoded by one call to the C encoder,
        then the fields after "jobs"."""
        rest = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "columns"}
        rest["schema"] = _SCHEMA
        head = _encode({k: v for k, v in rest.items() if k < "jobs"})
        sep = head[:-1] + ',"jobs":{'
        for name in _JOB_FIELDS:
            yield f'{sep}"{name}":'
            yield _encode(self.columns[name])
            sep = ","
        yield "}," + _encode({k: v for k, v in rest.items() if k > "jobs"})[1:]

    def to_json(self) -> str:
        """The report in schema 2: json.dumps(sort_keys=True, separators=(",",
        ":")) of its fields with "schema": 2, and "jobs" in place of columns.
        `cloudsched simulate` writes the same text piece by piece (json_texts)
        and a newline."""
        return "".join(self.json_texts())


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
    return list(map(_PCG64Stream, *words))


class _PCG64Stream:
    """numpy's PCG64 (128-bit LCG, XSL-RR output) from four 64-bit seed words."""

    __slots__ = ("_state", "_inc")

    def __init__(self, w0: int, w1: int, w2: int, w3: int):
        # numpy's pcg64_set_seed
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._state = ((w0 << 64 | w1) + self._inc) * _PCG64_MULT + self._inc

    def random(self) -> float:
        """The next double in [0, 1), as Generator.random() computes it."""
        state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        self._state = state
        low = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        out = (low >> rot | low << (64 - rot)) & _MASK64
        return (out >> 11) * (1.0 / 9007199254740992.0)


def window_stats_by_epoch(columns, epoch_length: float, blank_time: float = 0.0):
    """Each job's normalization stats over the jobs of its arrival epoch.

    columns holds the jobs' job_columns; run() passes only the jobs that pass
    validation: rejected jobs never reach the prioritizer. A job's epoch is
    int(arrival // epoch_length), which np.floor_divide computes as Python
    does: an arrival whose quotient overflows gets the epoch inf, as with //,
    so all such jobs share one epoch. Returns the arrays (t_start_min,
    t_start_max, demand_weight_max), one value per job, equal to the fields
    of WindowStats.from_jobs over the jobs of its epoch in the order given.
    """
    t_start, weight = start_and_weight(columns, blank_time)
    with np.errstate(over="ignore", invalid="ignore"):
        quotients = np.floor_divide(columns[0], epoch_length)
    epochs, epoch = np.unique(quotients, return_inverse=True)
    stats = []
    for values, reduce, initial in ((t_start, np.fmin, np.inf), (t_start, np.fmax, -np.inf),
                                    (weight, np.fmax, -np.inf)):
        by_epoch = np.full(len(epochs), initial)
        reduce.at(by_epoch, epoch, values)
        stats.append(by_epoch[epoch])
    return tuple(stats)


def _cheapest_fits(catalog, jobs, demand) -> list:
    """cheapest_fit(catalog, job.demand) of each job, called once per distinct
    row of demand, the jobs' (processors, memory, storage) float64 rows.

    Rows are told apart by their bytes, and each call gets the demand of the
    first job with that row: demands that read as the same floats compare
    alike against every catalog entry.
    """
    rows = np.ascontiguousarray(demand.T).view(np.dtype((np.void, demand.itemsize * 3)))
    _rows, first, row = np.unique(rows.reshape(-1), return_index=True, return_inverse=True)
    fits = [cheapest_fit(catalog, jobs[k].demand) for k in first.tolist()]
    return list(map(fits.__getitem__, row.reshape(-1).tolist()))


class _Inputs:
    """The inputs of run() that depend on the jobs and the config, not on the
    mode, prepared in one pass over the float64 columns of the jobs' numeric
    fields (domain.job_columns). The columns themselves are not kept.

    Admitted jobs are numbered k = 0.. in job id order, int ids by value
    before the others by their text, so k breaks the ties between same-time
    events of the same kind. Lists of admitted jobs are indexed by k; lists
    of all jobs are in the order of the job list.
    """

    __slots__ = ("job_id", "arrival_column", "due", "reasons", "rejected", "row", "order",
                 "adm", "fits", "arrival", "exec_time", "deadline", "instance", "cost",
                 "arrivals", "t_start", "weight", "tp", "bp")

    def __init__(self, config: SimConfig, jobs):
        if not jobs:
            raise ValueError("jobs must be non-empty")
        ids = [job.id for job in jobs]
        if len(set(ids)) < len(ids):
            seen_ids = set()
            for job_id in ids:
                if job_id in seen_ids:
                    raise ValueError(f"duplicate job id {job_id!r}")
                seen_ids.add(job_id)
        self.job_id = ids
        self.arrival_column = [job.arrival_time for job in jobs]
        self.due = [job.due_time for job in jobs]

        # The mask validates every job at once; only the jobs it rejects are
        # validated one by one, for their reasons.
        columns = job_columns(jobs)
        valid = valid_mask(columns)
        self.reasons = reasons = [None] * len(jobs)
        for i in np.flatnonzero(~valid).tolist():
            reasons[i] = validate_job(jobs[i]).reason
        admitted = np.flatnonzero(valid).tolist()
        self.rejected = len(jobs) - len(admitted)
        columns = columns[:, admitted]
        windows = window_stats_by_epoch(columns, config.epoch_length, config.blank_time)

        # by_id[k] is job k's place among the admitted, and order[k] in the job list.
        adm_ids = [ids[i] for i in admitted]
        int_ids = [p for p, job_id in enumerate(adm_ids) if isinstance(job_id, int)]
        other_ids = [p for p, job_id in enumerate(adm_ids) if not isinstance(job_id, int)]
        by_id = (sorted(int_ids, key=adm_ids.__getitem__)
                 + sorted(other_ids, key=lambda p: str(adm_ids[p])))
        self.order = order = [admitted[p] for p in by_id]
        self.adm = adm = [jobs[i] for i in order]
        by_id = np.array(by_id, dtype=np.intp)
        columns = columns[:, by_id]
        self.t_start, self.weight, self.tp, self.bp = technical_columns(
            columns, [stat[by_id] for stat in windows], config)
        # Rows 4:7 are the processors, memory and storage.
        self.fits = fits = _cheapest_fits(config.catalog, adm, columns[4:7])

        # The report row of each job: its k, or row m_jobs, that of the rejected
        # jobs; None when each job's row is its place in the job list.
        row = [len(adm)] * len(jobs)
        for k, i in enumerate(order):
            row[i] = k
        self.row = None if order == list(range(len(jobs))) else row
        self.arrival = arrival = [job.arrival_time for job in adm]
        self.exec_time = exec_time = [job.exec_time for job in adm]
        self.deadline = [job.arrival_time + job.due_time for job in adm]
        # The instance and the cost of each job, should it start and complete.
        self.instance = [None if fit is None else fit.name for fit in fits]
        self.cost = [None if fit is None else e / 3600.0 * fit.cost
                     for e, fit in zip(exec_time, fits)]
        # The k in arrival order, ties by k.
        self.arrivals = sorted(range(len(adm)), key=arrival.__getitem__)


class JobSet:
    """A job list that run() takes in place of the list, and the inputs
    run() prepares from it for each config it is run with.

    The inputs that do not depend on the mode (validation, epoch windows, id
    order, cheapest fits, technical and business scores, and the report's
    job_id, arrival and due columns) are prepared by the first run() over the
    set with a config, and reused by every later run() with an equal config,
    so a paired native and resultant run prepares them once. The set keeps
    them while it lives: drop it once its runs are done. run() wraps a plain
    job list in a JobSet of its own. The jobs must not change once prepared.
    """

    __slots__ = ("jobs", "_prepared")

    def __init__(self, jobs):
        self.jobs = tuple(jobs)
        self._prepared: list = []  # (config, _Inputs) pairs; a config need not be hashable

    def __len__(self) -> int:
        return len(self.jobs)

    def inputs(self, config: SimConfig) -> _Inputs:
        """The prepared inputs for config, prepared on first use."""
        for prepared_config, inputs in self._prepared:
            if prepared_config == config:
                return inputs
        inputs = _Inputs(config, self.jobs)
        self._prepared.append((config, inputs))
        return inputs


def run(config: SimConfig, jobs, mode: str = "resultant") -> SimReport:
    """Simulate the full pipeline over a job list until drained.

    jobs is a JobSet, or a job list that run() wraps in one. mode "resultant"
    applies the business boost above the threshold; "native" scores jobs by
    technical priority alone. Same config, jobs, and seed give a
    byte-identical report, whether the jobs come as a list or as a JobSet
    already run in the other mode. Allocation draws come from one stream per
    job, numpy's PCG64 seeded by SeedSequence(seed, spawn_key=(job index,))
    and computed without building a numpy Generator (see _job_streams), so
    paired native/resultant runs see common random numbers; a job whose band
    admits with probability 1 never draws and gets no stream. Duplicate job
    ids raise ValueError.

    The inputs that both modes share are prepared once per JobSet and config
    (see JobSet), in one pass over the float64 columns of the jobs' numeric
    fields (domain.job_columns):
    - domain.valid_mask validates every job at once. An invalid job is
      recorded as rejected with the reason validate_job gives it, and never
      enters the event queue; validate_job runs for those jobs only.
    - window_stats_by_epoch reduces the admitted jobs' columns to each job's
      epoch window, and technical_columns scores every admitted job against
      it.
    - cheapest_fit runs once per distinct demand.
    Each run then computes the resultant and rank of its mode
    (resultant_columns), and from the rank each job's class, by classify's
    rule, and its admission probability, that of its rank's band; an arrival
    only enqueues the job. A demand that no catalog entry fits raises
    UnsatisfiableDemandError at the job's first allocation attempt.

    The event loop handles only the events that change state. An arrival or
    a retry can unblock only its own class (every other class is empty, has
    a head waiting for its retry, or waits for a free slot), so only that
    class is offered the pool; a completion offers it to every class in class
    order. Per-job state lives in lists, and a job's instance, wait, cost and
    deadline flag are computed after the loop from its start and completion.
    The report holds its job records as columns (SimReport.columns).
    """
    if mode not in ("native", "resultant"):
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(jobs, JobSet):
        jobs = JobSet(jobs)
    inputs = jobs.inputs(config)
    order, adm, fits, arrival, exec_time = (inputs.order, inputs.adm, inputs.fits,
                                            inputs.arrival, inputs.exec_time)
    m_jobs = len(order)
    resultant, rank = resultant_columns(inputs.tp, inputs.bp, config,
                                        apply_business=mode == "resultant")

    # Each job's class (classify's rule), queue and admission probability,
    # looked up by its rank.
    n_classes = len(config.class_rates)
    classes = [QueueClass(c + 1) for c in range(n_classes)]
    table = AllocationTable(config.allocation_bands)
    class_of_rank = [None] + [classify(r, n_classes) for r in range(1, 101)]
    queue_of_rank = [None] + [classes[c - 1] for c in class_of_rank[1:]]
    band_probability = [None] + [table.probability(r) for r in range(1, 101)]
    class_index = list(map(class_of_rank.__getitem__, rank))
    queue = list(map(queue_of_rank.__getitem__, rank))
    probs = list(map(band_probability.__getitem__, rank))
    streams: list = [None] * m_jobs
    drawing = [k for k in range(m_jobs) if probs[k] != 1.0]
    for k, stream in zip(drawing, _job_streams(config.seed, [order[k] for k in drawing])):
        streams[k] = stream

    # Per-job state, indexed by k.
    start, completion, chain_position = ([None] * m_jobs for _ in range(3))
    status = ["pending"] * m_jobs
    retries = [0] * m_jobs
    pending_retry = [False] * m_jobs
    reasons = list(inputs.reasons)
    stuck_reason = f"exceeded max_retries ({config.max_retries})"

    # Arrivals are known up front, in inputs.arrivals; the heap holds only
    # completions and retries as (time, kind, k).
    arrivals = inputs.arrivals
    heap: list = []
    heappush, heappop = heapq.heappush, heapq.heappop
    pool = ResourcePool(config.num_vms, config.catalog)
    capacity, retry_interval = pool.capacity, config.retry_interval
    max_retries, max_queue_length = config.max_retries, config.max_queue_length

    collected = completed = stuck = 0
    in_queue = in_service = 0
    busy_time = 0.0
    last_time = 0.0
    unstable = False

    next_arrival = 0
    while next_arrival < m_jobs or heap:
        if next_arrival < m_jobs:
            k = arrivals[next_arrival]
            now = arrival[k]
            # The heap's first event goes first if it is earlier, or a
            # completion at the same instant.
            if heap and (heap[0][0] < now or (heap[0][0] == now and heap[0][1] < ARRIVAL)):
                now, kind, k = heappop(heap)
            else:
                next_arrival += 1
                kind = ARRIVAL
        else:
            now, kind, k = heappop(heap)
        last_time = now
        if kind == ARRIVAL:
            collected += 1
            offered = (queue[k],)
            chain_position[k] = queue[k].enqueue(k)
            in_queue += 1
            if in_queue > max_queue_length:
                unstable = True
                break
        elif kind == RETRY_ALLOCATION:
            offered = (queue[k],)
            pending_retry[k] = False
        else:
            offered = classes
            pool.in_use -= 1
            completion[k] = now
            status[k] = "completed"
            completed += 1
            in_service -= 1
            busy_time += exec_time[k]
        # Offer free slots to the heads of the offered classes, in class
        # order, until a head waits for its retry or the pool is full.
        if in_queue:
            for qc in offered:
                while qc.entries and pool.in_use < capacity:
                    k = qc.peek()
                    if pending_retry[k]:
                        break
                    if try_allocate(adm[k], fits[k], probs[k], pool, streams[k]):
                        # Service starts at the allocation instant.
                        qc.pop()
                        in_queue -= 1
                        in_service += 1
                        start[k] = now
                        heappush(heap, (now + exec_time[k], COMPLETION, k))
                        continue
                    retries[k] += 1
                    if retries[k] > max_retries:
                        qc.pop()
                        in_queue -= 1
                        status[k] = "stuck"
                        reasons[order[k]] = stuck_reason
                        stuck += 1
                        continue
                    pending_retry[k] = True
                    heappush(heap, (now + retry_interval, RETRY_ALLOCATION, k))
                    break
                if pool.in_use >= capacity:
                    break
        # Conservation: every collected job is accounted for at every instant.
        assert collected == completed + stuck + in_queue + in_service

    wait = [None if t is None else t - a for t, a in zip(start, arrival)]
    instance = [None if t is None else name for t, name in zip(start, inputs.instance)]
    cost = [None if t is None else c for t, c in zip(completion, inputs.cost)]
    deadline_met = [None if t is None else t <= d for t, d in zip(completion, inputs.deadline)]

    # The report row of each job: its k, row m_jobs for rejected jobs, or row
    # m_jobs + 1 for jobs yet to arrive when an unstable run stopped. Each
    # column the report reads gets those two rows.
    row = inputs.row
    if next_arrival < m_jobs:
        row = list(range(m_jobs)) if row is None else row.copy()
        for k in arrivals[next_arrival:]:
            row[order[k]] = m_jobs + 1

    def by_job(column, extra=(None, None)) -> list:
        if row is None:  # each job's row is its k
            return column.copy()
        return list(map([*column, *extra].__getitem__, row))

    columns = {
        "job_id": inputs.job_id,
        "arrival": inputs.arrival_column,
        "due": inputs.due,
        "ack": by_job(arrival),
        "start": by_job(start),
        "completion": by_job(completion),
        "wait": by_job(wait),
        "t_start": by_job(inputs.t_start),
        "demand_weight": by_job(inputs.weight),
        "tp_score": by_job(inputs.tp),
        "bp_score": by_job(inputs.bp),
        "resultant": by_job(resultant),
        "rank": by_job(rank),
        "class_index": by_job(class_index),
        "chain_position": by_job(chain_position),
        "instance": by_job(instance),
        "cost": by_job(cost),
        "deadline_met": by_job(deadline_met),
        "status": by_job(status, ("rejected", "pending")),
        "retries": by_job(retries, (0, 0)),
        "reason": reasons,
    }
    band_waits, class_sls, hit_rate, total_cost = _summary(columns, table.bands, n_classes)
    utilization = busy_time / (config.num_vms * last_time) if last_time > 0 else 0.0

    return SimReport(
        mode=mode,
        seed=config.seed,
        columns=columns,
        band_waits=band_waits,
        class_sls=class_sls,
        deadline_hit_rate=hit_rate,
        utilization=utilization,
        total_cost=total_cost,
        completed=completed,
        rejected=inputs.rejected,
        stuck=stuck,
        unstable=unstable,
        makespan=last_time,
        config=config.to_dict(),
    )


def _summary(columns: dict, bands, n_classes: int) -> tuple[dict, dict, float, float]:
    """Band waits, class SLS (the mean resultant), deadline hit rate and
    total cost of the completed jobs in a run's report columns, in one pass.

    Each total adds its values left to right, starting at the int 0 as sum()
    does, so an empty total is 0. sum() itself compensates float sums from
    Python 3.12 on, which would make the report depend on the interpreter.
    """
    band_of = [None] * 101
    for b, (lo, hi, _p) in enumerate(bands):
        band_of[lo:hi + 1] = [b] * (hi - lo + 1)
    wait_total, wait_count = [0] * len(bands), [0] * len(bands)
    sls_total, sls_count = [0] * n_classes, [0] * n_classes
    done = met = 0
    total_cost = 0
    for status, wait, rank, class_index, sls, deadline_met, cost in zip(
            *map(columns.__getitem__,
                 ("status", "wait", "rank", "class_index", "resultant", "deadline_met", "cost"))):
        if status == "completed":
            b = band_of[rank]
            wait_total[b] += wait
            wait_count[b] += 1
            sls_total[class_index - 1] += sls
            sls_count[class_index - 1] += 1
            met += deadline_met
            total_cost += cost
            done += 1
    band_waits = {f"{lo}-{hi}": wait_total[b] / wait_count[b]
                  for b, (lo, hi, _p) in enumerate(bands) if wait_count[b]}
    class_sls = {str(c + 1): sls_total[c] / sls_count[c]
                 for c in range(n_classes) if sls_count[c]}
    hit_rate = met / done if done else 0.0
    return band_waits, class_sls, hit_rate, total_cost


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


def replication_bundle(config: SimConfig, spec: WorkloadSpec) -> list[ReplicationRow]:
    """All reference curves plus a simulated waiting curve at the configured scale.

    Series: priority_boost (technical score -> boosted score at the configured
    cap), sls_native / sls_resultant, allocation_band (rank band -> admission
    probability), wait_model_native / wait_model_resultant (hours), and
    wait_simulated (mean simulated wait hours per rank band) of config's jobs
    drawn from spec.
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
    jobs = sample_jobs(config, spec, generate_arrivals(config))
    report = run(config, jobs, mode="resultant")
    for band, wait in report.band_waits.items():
        rows.append(ReplicationRow("wait_simulated", band, wait / 3600.0, "simulated"))
    return rows


def compare_analytic(report: SimReport, class_moments, min_samples: int = 10_000) -> list[float]:
    """Relative error of simulated class waits against the closed-form prediction.

    class_moments is the (rate, mean service, mean squared service) list fed to
    the analytic formula, one entry per class in class order. Each class's
    waits are added left to right, as _summary adds them.
    """
    from .queueing import mg1_waiting

    analytic = mg1_waiting(class_moments)
    columns = report.columns
    totals: dict = {}
    counts: dict = {}
    for status, class_index, wait in zip(columns["status"], columns["class_index"],
                                         columns["wait"]):
        if status == "completed":
            totals[class_index] = totals.get(class_index, 0) + wait
            counts[class_index] = counts.get(class_index, 0) + 1
    errors = []
    for i, w_analytic in enumerate(analytic, start=1):
        count = counts.get(i, 0)
        if count < min_samples:
            raise InsufficientSamplesError(
                f"class {i} has {count} completed jobs, need {min_samples}")
        w_sim = totals.get(i, 0) / count
        errors.append(abs(w_sim - w_analytic) / w_analytic)
    return errors
