"""Discrete-event engine tying workload, priority, and queueing together,
plus report building, the affine waiting-time reference model, and the
replication bundle of reference curves.

run() takes its jobs as a domain.JobSet, which holds them as columns: one
Python list per job field, as sample_jobs and load_jobs build it, and the
float64 array of the same values. No Job object is built on the way from the
workload to the report. The first run over a set with a config prepares the
per-job inputs that do not depend on the mode from those columns (the
validity mask, the epoch windows, the id order, the technical and business
scores and the cheapest fits), and the set keeps them, so a paired native
and resultant run prepares them once. A job that nothing in the catalog fits
is rejected there, so the event loop only schedules; each run adds the
resultant, rank, class and admission probability of its mode. A job's
allocation draws are common to both modes: draw d of the set's job i depends
on (seed, i, d) alone, through numpy's counter-based Philox generator. The
event loop keeps each job's state in per-field lists indexed by the job's
place in id order. It takes arrivals in arrival order from a list, retries
from a heap, and completions from a FIFO in start order when every admitted
job has one float exec time (their times then come out sorted), and from a
heap otherwise. Its SimReport holds the job records as columns, one list per
JobRecord field. A report is written in schema 2 as those columns:
compact JSON with sorted keys, one encoder call per column
(SimReport.json_texts). A column is encoded by orjson where its text is
provably that of the json module's C encoder, and by the C encoder otherwise
(_column_text), so every byte is the json module's.
"""

from __future__ import annotations

import functools
import heapq
import json
import operator
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .domain import (
    JobSet,
    ResourceDemand,
    SimConfig,
    first_repeated,
    start_and_weight,
    valid_mask,
    validate_job,
)
from .priority import (
    resultant_columns,
    resultant_priority,
    service_level_satisfaction,
    technical_columns,
)
from .queueing import QueueClass, UnsatisfiableDemandError, cheapest_fit, classify, try_allocate
from .workload import WorkloadSpec, sample_jobs

# Event kinds, in the order same-time events resolve. Completions free
# capacity before new arrivals see the pool, and retries come last. Remaining
# ties go by job id (k), except between completions taken in start order from
# a FIFO, which hold one float value and whose order changes nothing (run()).
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


def _column_text(column) -> str:
    """_encode(column) for a list of JSON scalars, from orjson where its text
    is provably the same: orjson is about ten times faster.

    orjson writes other text for a str (non-ASCII and \\x7f raw), for NaN and
    inf (null), and for a float outside 1e-4 <= |x| < 1e16 (1e16, 1e-7 and
    0.00001 for repr's 1e+16, 1e-07 and 1e-05); it raises on an int past 64
    bits and on a float subclass. So the column is encoded by _encode when
    orjson raises, when its text holds a quote, or when it holds another
    count of null than the column holds None. Each token with an e or
    0.0000 is respelled as repr spells it (_respelled); the column is
    encoded by _encode instead when such a token is not a float (true and
    false hold an e) or more than one token in _RESPELL_SHARE needs it.
    Every other float is written as its shortest round-trip digits by both,
    in the same notation."""
    import orjson  # here, not at the top, so that only a writer pays for it

    try:
        text = orjson.dumps(column).decode()
    except TypeError:
        return _encode(column)
    if '"' in text or ("null" in text and text.count("null") != column.count(None)):
        return _encode(column)
    for mark in ("e", "0.0000"):
        if mark in text:
            if text.count(mark) * _RESPELL_SHARE > len(column):
                return _encode(column)
            text = _respelled(text, mark)
            if text is None:
                return _encode(column)
    return text


# A column's tokens are respelled only where at most one in this many needs
# it: respelling a token costs several times what encoding it does.
_RESPELL_SHARE = 16


def _respelled(text: str, mark: str) -> str | None:
    """text, orjson's text of a list of scalars, with each token that holds
    mark spelled as repr(float(token)), as _encode spells the float that
    orjson wrote: both are round-trip texts of one double. None when such a
    token is not a float (true or false)."""
    pieces, done = [], 0
    i = text.find(mark)
    while i >= 0:
        start = max(text.rfind(",", 0, i), 0) + 1
        end = text.find(",", i)
        if end < 0:
            end = len(text) - 1
        try:
            token = repr(float(text[start:end]))
        except ValueError:
            return None
        pieces += text[done:start], token
        done = end
        i = text.find(mark, end)
    pieces.append(text[done:])
    return "".join(pieces)


def value_texts(values) -> list:
    """The JSON text of each of values, a list or tuple of scalars, as _encode
    writes it: one _column_text call split at its commas, or one _encode call
    per value when a value's text holds a comma."""
    texts = _column_text(values)[1:-1].split(",")
    return list(map(_encode, values)) if len(texts) != len(values) else texts


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
        other schema or mode, a job value whose type its JobRecord field
        does not allow, and a completed job that holds None in a field other
        than reason raise ValueError."""
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
        for name, column in columns.items():
            if name != "reason" and None in column:
                for job_id, value, status in zip(columns["job_id"], column, columns["status"]):
                    if value is None and status == "completed":
                        raise ValueError(f"column {name!r} holds None for the completed job "
                                         f"{job_id!r}")
        values = {f.name: d[f.name] for f in fields(cls) if f.name != "columns"}
        values.update(band_waits=dict(values["band_waits"]),
                      class_sls=dict(values["class_sls"]))
        return cls(columns=columns, **values)

    def json_texts(self):
        """The to_json() text in pieces: the fields before "jobs", each job
        column's key and list, one _column_text call per list, then the
        fields after "jobs"."""
        rest = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "columns"}
        rest["schema"] = _SCHEMA
        head = _encode({k: v for k, v in rest.items() if k < "jobs"})
        columns = self.columns
        sep = head[:-1] + ',"jobs":{'
        for name in _JOB_FIELDS:
            yield f'{sep}"{name}":'
            yield _column_text(columns[name])
            sep = ","
        yield "}," + _encode({k: v for k, v in rest.items() if k > "jobs"})[1:]

    def to_json(self) -> str:
        """The report in schema 2: json.dumps(sort_keys=True, separators=(",",
        ":")) of its fields with "schema": 2, and "jobs" in place of columns.
        `cloudsched simulate` writes the same text piece by piece (json_texts)
        and a newline."""
        return "".join(self.json_texts())


# The jobs whose later allocation draws are built together (_Inputs.draw).
_DRAW_RUN = 64


def _uniforms(seed: int, count: int, counter=None) -> np.ndarray:
    """Generator(Philox(key=seed, counter=counter)).random(count), computed
    from the raw words of numpy's Philox4x64-10 without a Generator."""
    return (np.random.Philox(key=seed, counter=counter).random_raw(count) >> 11) * 2.0**-53


def window_stats_by_epoch(columns, epoch_length: float):
    """Each job's normalization stats over the jobs of its arrival epoch.

    columns holds the jobs' job_columns; run() passes only the jobs that pass
    validation: rejected jobs never reach the prioritizer. A job's epoch is
    int(arrival // epoch_length), which np.floor_divide computes as Python
    does: an arrival whose quotient overflows gets the epoch inf, as with //,
    so all such jobs share one epoch. Returns the arrays (t_start_min,
    t_start_max, demand_weight_max), one value per job, equal to the fields
    of WindowStats.from_jobs over the jobs of its epoch in the order given.
    """
    t_start, weight = start_and_weight(columns)
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


def _cheapest_fits(catalog, jobs: JobSet, order: list, demand) -> list:
    """The cheapest fit of each job jobs[i], i in order, None where nothing
    fits, given demand, their (processors, memory, storage) float64 rows.

    cheapest_fit runs once per distinct row, on the ResourceDemand of the
    first of its jobs: rows are told apart by their bytes, and demands that
    read as the same floats compare alike against every catalog entry.
    """
    processors, memory, storage = jobs.values[4:7]
    rows = np.ascontiguousarray(demand.T).view(np.dtype((np.void, demand.itemsize * 3)))
    _rows, first, row = np.unique(rows.reshape(-1), return_index=True, return_inverse=True)
    fits = [cheapest_fit(catalog, ResourceDemand(processors[i], memory[i], storage[i]))
            for i in map(order.__getitem__, first.tolist())]
    return list(map(fits.__getitem__, row.reshape(-1).tolist()))


class _Inputs:
    """The inputs of run() that depend on the jobs and the config, not on the
    mode, prepared from a JobSet's value lists and its float64 columns, and
    the allocation draws, built when first needed (draw). reasons[i] is
    validate_job's reason for jobs[i], None for an admitted job. The columns
    of the admitted jobs are not kept. When nothing in the catalog fits an
    admitted job, UnsatisfiableDemandError names the first such job to arrive.

    Admitted jobs are numbered k = 0.. in job id order, int ids by value
    before the others by their text, so k breaks the ties between same-time
    events of the same kind. Lists of admitted jobs are indexed by k; lists
    of all jobs are in the order of the job set. same_exec is True when at
    least one job is admitted and every admitted job's exec time is the same
    float value, each given as a float; run() then takes completions from a
    FIFO. An int among equal exec times makes it False, as does a set with
    no admitted job.
    """

    __slots__ = ("reasons", "row", "order", "arrival", "exec_time", "deadline", "instance",
                 "cost", "arrivals", "same_exec", "t_start", "weight", "tp", "bp", "seed", "_first",
                 "_blocks")

    def __init__(self, config: SimConfig, jobs: JobSet):
        if not jobs:
            raise ValueError("jobs must be non-empty")
        self.seed, self._first, self._blocks = config.seed, None, {}
        ids = jobs.ids
        repeated = first_repeated(ids)
        if repeated is not None:
            raise ValueError(f"duplicate job id {ids[repeated]!r}")

        # The mask validates every job at once; only the jobs it rejects are
        # validated one by one, for their reasons.
        columns = jobs.columns
        valid = valid_mask(columns)
        self.reasons = reasons = [None] * len(jobs)
        for i in np.flatnonzero(~valid).tolist():
            reasons[i] = validate_job(jobs[i])
        admitted = np.flatnonzero(valid).tolist()
        if len(admitted) < len(jobs):
            columns = columns[:, admitted]
        windows = window_stats_by_epoch(columns, config.epoch_length)

        # order[k] is job k's place in the job set. Int ids already in
        # increasing order, as sample_jobs and generate's files give them,
        # are in id order as they stand; otherwise by_id[k] is job k's place
        # among the admitted.
        adm_ids = [ids[i] for i in admitted]
        if set(map(type, adm_ids)) == {int} and all(map(operator.lt, adm_ids, adm_ids[1:])):
            self.order = admitted
        else:
            int_ids = [p for p, job_id in enumerate(adm_ids) if isinstance(job_id, int)]
            other_ids = [p for p, job_id in enumerate(adm_ids) if not isinstance(job_id, int)]
            by_id = (sorted(int_ids, key=adm_ids.__getitem__)
                     + sorted(other_ids, key=lambda p: str(adm_ids[p])))
            self.order = [admitted[p] for p in by_id]
            by_id = np.array(by_id, dtype=np.intp)
            columns = columns[:, by_id]
            windows = [stat[by_id] for stat in windows]
        order = self.order
        self.t_start, self.weight, self.tp, self.bp = technical_columns(columns, windows, config)
        # Rows 4:7 are the processors, memory and storage.
        fits = _cheapest_fits(config.catalog, jobs, order, columns[4:7])

        # The report row of each job: its k, or row m_jobs, that of the rejected
        # jobs; None when each job's row is its place in the job set.
        self.row = None
        if order != list(range(len(jobs))):
            self.row = row = [len(order)] * len(jobs)
            for k, i in enumerate(order):
                row[i] = k
        arrival_values, due_values, exec_values = jobs.values[:3]
        self.arrival = arrival = list(map(arrival_values.__getitem__, order))
        self.exec_time = exec_time = list(map(exec_values.__getitem__, order))
        self.deadline = [a + due_values[i] for a, i in zip(arrival, order)]
        self.same_exec = set(map(type, exec_time)) == {float} and len(set(exec_time)) == 1
        # The k in arrival order, ties by k.
        self.arrivals = sorted(range(len(order)), key=arrival.__getitem__)
        # The first job to arrive that nothing fits is named, with its own demand.
        unfit = next((k for k in self.arrivals if fits[k] is None), None)
        if unfit is not None:
            job = jobs[order[unfit]]
            raise UnsatisfiableDemandError(
                f"job {job.id!r}: demand {job.demand} exceeds every catalog entry")
        # The instance and the cost of each job, should it start and complete.
        self.instance = [fit.name for fit in fits]
        self.cost = [e / 3600.0 * fit.cost for e, fit in zip(exec_time, fits)]

    def draw(self, i: int, d: int) -> float:
        """Draw d of the set's job i (see run()). The first draw builds draws
        0..3 of every job in one Philox call, row i for job i. Later blocks
        of four are built a run of _DRAW_RUN jobs at a time, jobs
        r * _DRAW_RUN.. of run r: block l of a run is built in one Philox call
        when a job of the run first reaches it, as Philox steps the low
        counter word, the job's, from one block to the next."""
        if d < 4:
            if self._first is None:
                n = len(self.reasons)
                self._first = _uniforms(self.seed, 4 * n).reshape(n, 4)
            return self._first[i, d]
        r, place = divmod(i, _DRAW_RUN)
        block = self._blocks.get((r, d >> 2))
        if block is None:
            first = i - place
            count = min(_DRAW_RUN, len(self.reasons) - first)
            block = self._blocks[r, d >> 2] = _uniforms(self.seed, 4 * count,
                                                        [first, d >> 2, 0, 0])
        return block[4 * place + (d & 3)]


def run(config: SimConfig, jobs, mode: str = "resultant") -> SimReport:
    """Simulate the full pipeline over a set of jobs until drained.

    jobs is a JobSet, as sample_jobs and load_jobs return it, or a list of
    Job objects that run() wraps in one. mode "resultant" applies the
    business boost above the threshold; "native" scores jobs by technical
    priority alone. Same config, jobs, and seed give a
    byte-identical report, whether the jobs come as a list or as a JobSet
    already run in the other mode. Duplicate job ids raise ValueError.

    Allocation draws have no state: attempt d of the job at place i of the
    job set draws u(seed, i, d), and draws 4l..4l+3 of job i are
    Generator(Philox(key=seed, counter=[i, l, 0, 0])).random(4), from numpy's
    Philox4x64-10, whose 128-bit key bounds the seed (SimConfig: seed <
    2**128). Paired native and resultant runs thus see common random numbers.
    A job whose band admits with p = 1 draws nothing. The draws are built
    once per JobSet and config, when first needed (_Inputs.draw): draws 0..3
    of every job in one Philox call, and each later block of four for a run
    of _DRAW_RUN jobs in one call.

    The inputs that both modes share are prepared once per JobSet and config
    (JobSet.prepared) from the set's value lists and its float64 columns:
    - domain.valid_mask validates every job at once. A job it rejects is
      recorded as rejected with the reason validate_job returns for it, and
      never enters the event queue; validate_job runs for those jobs only.
    - window_stats_by_epoch reduces the admitted jobs' columns to each job's
      epoch window, and technical_columns scores every admitted job against
      it.
    - cheapest_fit runs once per distinct demand (_cheapest_fits); an unfit
      demand raises UnsatisfiableDemandError before any event, naming the
      first such job to arrive, ties by id, and the job's own demand.
    Each run then computes the resultant and rank of its mode
    (resultant_columns), and from the rank each job's class, by classify's
    rule, and its admission probability, that of its rank's band; an arrival
    only enqueues the job.

    The pool is config.num_vms identical VMs, and the run counts the busy
    ones; a job is offered a VM, and its admission tested (try_allocate),
    only while one is free, and it is granted its cheapest fit. The event
    loop handles only the events that change state. Each step takes the
    earliest of the next arrival (from inputs.arrivals), the first
    completion and the first retry, in event-kind order at one instant.
    Retries wait in a heap of (time, k). Completions wait in done, a queue
    of (time, k): a heap, or a FIFO in start order when every admitted job
    has one float exec time e (_Inputs.same_exec). The FIFO gives the
    heap's result: now never decreases and float addition is monotone, so
    the times now + e come out sorted; completions tied at one instant hold
    one float value, and each writes only its own job's fields, adds the
    same e to the busy time and is followed by the same offers, so taking
    them in start order instead of k order changes no field. Exec times of
    one value given as an int and a float keep the heap: their completion
    times differ in type, which the report shows. An arrival or a retry
    can unblock only its own class (every other class is empty, has a head
    waiting for its retry, or waits for a free VM), so only that class is
    offered the free VMs; a completion offers them to every class in class
    order. Per-job state lives in lists, and a job's instance, wait, cost
    and deadline flag are computed after the loop from its start and
    completion.
    The report holds its job records as columns (SimReport.columns): the
    run's own lists, and copies of the set's lists and of the shared inputs,
    so a report's columns never alias the jobs or another report.
    """
    if mode not in ("native", "resultant"):
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(jobs, JobSet):
        jobs = JobSet(jobs)
    inputs = jobs.prepared(config, _Inputs)
    order, arrival, exec_time = inputs.order, inputs.arrival, inputs.exec_time
    m_jobs = len(order)
    resultant, rank = resultant_columns(inputs.tp, inputs.bp, config,
                                        apply_business=mode == "resultant")

    # Each job's class (classify's rule), queue and admission probability,
    # looked up by its rank. SimConfig has validated the bands, which cover
    # ranks 1..100 once each; band_of_rank[r] is the index of rank r's band.
    n_classes = len(config.class_rates)
    classes = [QueueClass() for _ in range(n_classes)]
    bands = sorted(config.allocation_bands, key=operator.itemgetter(0))
    band_of_rank = [None] + [b for b, (lo, hi, _p) in enumerate(bands) for _ in range(lo, hi + 1)]
    class_of_rank = [None] + [classify(r, n_classes) for r in range(1, 101)]
    queue_of_rank = [None] + [classes[c - 1] for c in class_of_rank[1:]]
    probability_of_rank = [None] + [bands[b][2] for b in band_of_rank[1:]]
    class_index = list(map(class_of_rank.__getitem__, rank))
    queue = list(map(queue_of_rank.__getitem__, rank))
    probs = list(map(probability_of_rank.__getitem__, rank))
    draw = inputs.draw

    # Per-job state, indexed by k.
    start, completion, chain_position = ([None] * m_jobs for _ in range(3))
    status = ["pending"] * m_jobs
    retries = [0] * m_jobs
    pending_retry = [False] * m_jobs
    reasons = list(inputs.reasons)
    stuck_reason = f"exceeded max_retries ({config.max_retries})"

    # Arrivals are known up front, in inputs.arrivals. Completions wait in
    # done and retries in retry_heap, as (time, k), each first at [0].
    arrivals = inputs.arrivals
    retry_heap: list = []
    heappush, heappop = heapq.heappush, heapq.heappop
    if inputs.same_exec:
        done = deque()
        push_done, pop_done = done.append, done.popleft
    else:
        done = []
        push_done = functools.partial(heappush, done)
        pop_done = functools.partial(heappop, done)
    allocate = try_allocate
    capacity, retry_interval = config.num_vms, config.retry_interval
    max_retries, max_queue_length = config.max_retries, config.max_queue_length

    completed = stuck = 0
    in_queue = in_service = 0
    busy_time = 0.0
    last_time = 0.0
    unstable = False

    next_arrival = 0
    while True:
        # The next event is the earliest of the next arrival, the first
        # completion and the first retry, in event-kind order at one instant.
        kind = None
        if next_arrival < m_jobs:
            k = arrivals[next_arrival]
            now, kind = arrival[k], ARRIVAL
        if done and (kind is None or done[0][0] <= now):
            now, k = done[0]
            kind = COMPLETION
        if retry_heap and (kind is None or retry_heap[0][0] < now):
            now, k = retry_heap[0]
            kind = RETRY_ALLOCATION
        if kind is None:
            break
        last_time = now
        if kind == ARRIVAL:
            next_arrival += 1
            offered = (queue[k],)
            chain_position[k] = queue[k].enqueue(k)
            in_queue += 1
            if in_queue > max_queue_length:
                unstable = True
                break
        elif kind == COMPLETION:
            pop_done()
            offered = classes
            completion[k] = now
            status[k] = "completed"
            completed += 1
            in_service -= 1
            busy_time += exec_time[k]
        else:
            heappop(retry_heap)
            offered = (queue[k],)
            pending_retry[k] = False
        # Offer free VMs to the heads of the offered classes, in class
        # order, until a head waits for its retry or every VM is busy.
        if in_queue:
            for qc in offered:
                while qc.entries and in_service < capacity:
                    k = qc.peek()
                    if pending_retry[k]:
                        break
                    # Attempt d of job k draws u(seed, order[k], d); none at p = 1.
                    p = probs[k]
                    u = None if p == 1.0 else draw(order[k], retries[k])
                    if allocate(p, u):
                        # Service starts at the allocation instant.
                        qc.pop()
                        in_queue -= 1
                        in_service += 1
                        start[k] = now
                        push_done((now + exec_time[k], k))
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
                    heappush(retry_heap, (now + retry_interval, k))
                    break
                if in_service >= capacity:
                    break
        # Conservation: every arrived job is accounted for at every instant.
        assert next_arrival == completed + stuck + in_queue + in_service

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
            return column
        return list(map([*column, *extra].__getitem__, row))

    columns = {
        # Copies of the job set's lists and of the inputs, which other runs
        # read: a report's columns are its own. The other lists are this
        # run's.
        "job_id": jobs.ids.copy(),
        "arrival": jobs.values[0].copy(),
        "due": jobs.values[1].copy(),
        "ack": by_job(arrival.copy()),
        "start": by_job(start),
        "completion": by_job(completion),
        "wait": by_job(wait),
        "t_start": by_job(inputs.t_start.copy()),
        "demand_weight": by_job(inputs.weight.copy()),
        "tp_score": by_job(inputs.tp.copy()),
        "bp_score": by_job(inputs.bp.copy()),
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
    band_waits, class_sls, hit_rate, total_cost = _summary(columns, bands, band_of_rank,
                                                           n_classes)
    utilization = busy_time / (capacity * last_time) if last_time > 0 else 0.0

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
        rejected=len(jobs) - m_jobs,
        stuck=stuck,
        unstable=unstable,
        makespan=last_time,
        config=config.to_dict(),
    )


def _summary(columns: dict, bands, band_of_rank: list,
             n_classes: int) -> tuple[dict, dict, float, float]:
    """Band waits, class SLS (the mean resultant), deadline hit rate and
    total cost of the completed jobs in a run's report columns, in one pass.
    bands are the allocation bands sorted by rank, and band_of_rank[r] is the
    index of rank r's band.

    Each total adds its values left to right, starting at the int 0 as sum()
    does, so an empty total is 0. sum() itself compensates float sums from
    Python 3.12 on, which would make the report depend on the interpreter.
    """
    wait_total, wait_count = [0] * len(bands), [0] * len(bands)
    sls_total, sls_count = [0] * n_classes, [0] * n_classes
    done = met = 0
    total_cost = 0
    for status, wait, rank, class_index, sls, deadline_met, cost in zip(
            *map(columns.__getitem__,
                 ("status", "wait", "rank", "class_index", "resultant", "deadline_met", "cost"))):
        if status == "completed":
            b = band_of_rank[rank]
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


def replication_bundle(config: SimConfig,
                       spec: WorkloadSpec) -> tuple[list[ReplicationRow], SimReport]:
    """All reference curves plus a simulated waiting curve at the configured
    scale, and the resultant run's report the simulated curve comes from.

    Series: priority_boost (technical score -> boosted score at the configured
    cap), sls_native / sls_resultant, allocation_band (rank band -> admission
    probability), wait_model_native / wait_model_resultant (hours), and
    wait_simulated (mean simulated wait hours per rank band) of config's jobs
    drawn from spec. wait_simulated has a row for each band with a completed
    job only, so it is partial, or absent, when the run stopped unstable.
    """
    rows = []
    for tp in (80, 78, 76, 74, 72, 70, 60, 58):
        boosted = resultant_priority(tp, config.business_cap, config)
        rows.append(ReplicationRow("priority_boost", str(tp), boosted, "model"))
        rows.append(ReplicationRow("sls_native", str(tp),
                                   service_level_satisfaction(tp), "model"))
        rows.append(ReplicationRow("sls_resultant", str(tp),
                                   service_level_satisfaction(boosted), "model"))
    for lo, hi, p in sorted(config.allocation_bands, key=operator.itemgetter(0)):
        rows.append(ReplicationRow("allocation_band", f"{lo}-{hi}", p, "model"))
    for p in range(10, 101, 10):
        rows.append(ReplicationRow("wait_model_native", str(p),
                                   waiting_time_model(p, "native"), "model"))
    for p in range(8, 99, 10):
        rows.append(ReplicationRow("wait_model_resultant", str(p),
                                   waiting_time_model(p, "resultant"), "model"))
    jobs = sample_jobs(config, spec)
    report = run(config, jobs, mode="resultant")
    for band, wait in report.band_waits.items():
        rows.append(ReplicationRow("wait_simulated", band, wait / 3600.0, "simulated"))
    return rows, report


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
