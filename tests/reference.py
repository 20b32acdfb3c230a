"""A reference engine for simulator.run(): the scheduling rules written out
from their definitions, one job object and one event at a time, with no code
shared with run()'s column pass or event loop, so that tests can hold run()
to it.

It builds on the scalar rules of the library: validate_job for validity,
WindowStats.from_jobs over each epoch's admitted jobs for the normalization
windows, build_record for the scores, classify for the classes and
cheapest_fit for the fits. Its engine has these rules:
- one heap of (time, kind, id key) events; at the same instant completions
  go before arrivals, and arrivals before retries;
- the id key orders int ids by value before str ids, which go by their text;
- at every event, every class is offered the free VMs in class order;
- attempt d of the job at place i of the job list draws
  Generator(Philox(key=seed, counter=[i, d // 4, 0, 0])).random(4)[d % 4],
  and a job whose band admits with p = 1 draws nothing;
- the run stops as unstable at the arrival that leaves more than
  max_queue_length jobs queued.
"""

import heapq
from collections import deque

import numpy as np

from cloudsched.domain import validate_job
from cloudsched.priority import WindowStats, build_record
from cloudsched.queueing import UnsatisfiableDemandError, cheapest_fit, classify

COMPLETION, ARRIVAL, RETRY = 0, 1, 2
# The job columns and the summary fields that reference_run gives.
COLUMNS = ("start", "completion", "status", "retries", "chain_position", "rank",
           "class_index", "instance")
SUMMARY = ("completed", "stuck", "rejected", "unstable", "makespan")


def draw(seed: int, i: int, d: int) -> float:
    """Draw d of the job at place i of the job list."""
    generator = np.random.Generator(np.random.Philox(key=seed, counter=[i, d // 4, 0, 0]))
    return float(generator.random(4)[d % 4])


def id_key(job_id):
    """The order of same-time events of one kind: int ids, then str ids."""
    return (0, job_id) if isinstance(job_id, int) else (1, job_id)


def reference_run(config, jobs: list, mode: str) -> tuple[dict, dict]:
    """The COLUMNS of run(config, jobs, mode), each a list with one value per
    job, and its SUMMARY fields, as two dicts."""
    n = len(jobs)
    col = {name: [None] * n for name in COLUMNS}
    col["status"], col["retries"] = ["pending"] * n, [0] * n
    admitted = []
    for i, job in enumerate(jobs):
        if validate_job(job) is None:
            admitted.append(i)
        else:
            col["status"][i] = "rejected"

    def epoch(job):
        return job.arrival_time // config.epoch_length

    batches: dict = {}
    for i in admitted:
        batches.setdefault(epoch(jobs[i]), []).append(jobs[i])
    windows = {key: WindowStats.from_jobs(batch) for key, batch in batches.items()}
    ranks, fits = {}, {}
    for i in admitted:
        ranks[i] = build_record(jobs[i], windows[epoch(jobs[i])], config,
                                apply_business=mode == "resultant").rank
        fits[i] = cheapest_fit(config.catalog, jobs[i].demand)
        if fits[i] is None:
            raise UnsatisfiableDemandError(f"job {jobs[i].id!r}")

    n_classes = len(config.class_rates)
    queues = [deque() for _ in range(n_classes)]
    next_position = [1] * n_classes
    place = {id_key(jobs[i].id): i for i in admitted}
    heap = [(jobs[i].arrival_time, ARRIVAL, id_key(jobs[i].id)) for i in admitted]
    heapq.heapify(heap)
    waiting_for_retry = set()
    free, in_queue = config.num_vms, 0
    summary = dict.fromkeys(("completed", "stuck"), 0)
    summary.update(rejected=n - len(admitted), unstable=False, makespan=0.0)
    while heap:
        now, kind, key = heapq.heappop(heap)
        i = place[key]
        summary["makespan"] = now
        if kind == ARRIVAL:
            col["rank"][i] = ranks[i]
            col["class_index"][i] = c = classify(ranks[i], n_classes)
            col["chain_position"][i] = next_position[c - 1]
            next_position[c - 1] += 1
            queues[c - 1].append(i)
            in_queue += 1
            if in_queue > config.max_queue_length:
                summary["unstable"] = True
                break
        elif kind == RETRY:
            waiting_for_retry.remove(i)
        else:
            col["completion"][i], col["status"][i] = now, "completed"
            summary["completed"] += 1
            free += 1
        for queue in queues:
            while queue and free and queue[0] not in waiting_for_retry:
                j = queue[0]
                p = next(p for lo, hi, p in config.allocation_bands if lo <= ranks[j] <= hi)
                if p == 1.0 or draw(config.seed, j, col["retries"][j]) < p:
                    queue.popleft()
                    in_queue -= 1
                    free -= 1
                    col["start"][j], col["instance"][j] = now, fits[j].name
                    heapq.heappush(heap, (now + jobs[j].exec_time, COMPLETION, id_key(jobs[j].id)))
                    continue
                col["retries"][j] += 1
                if col["retries"][j] > config.max_retries:
                    queue.popleft()
                    in_queue -= 1
                    col["status"][j] = "stuck"
                    summary["stuck"] += 1
                else:
                    waiting_for_retry.add(j)
                    heapq.heappush(heap, (now + config.retry_interval, RETRY, id_key(jobs[j].id)))
    return col, summary
