import random
from dataclasses import replace

import numpy as np
import pytest

from cloudsched.domain import (
    DEFAULT_ALLOCATION_BANDS,
    BusinessProfile,
    Job,
    JobSet,
    ResourceCatalogEntry,
    ResourceDemand,
    SimConfig,
    default_catalog,
)
from cloudsched import simulator
from cloudsched.queueing import (
    QueueClass,
    UnsatisfiableDemandError,
    UnstableError,
    cheapest_fit,
    classify,
    mg1_waiting,
    try_allocate,
)
from cloudsched.simulator import run


def make_job(demand=None, due=700.0, exec_time=650.0, prep=5.0, job_id=0, arrival=0.0):
    return Job(id=job_id, arrival_time=arrival, due_time=due, exec_time=exec_time,
               prep_time=prep, demand=demand or ResourceDemand(1, 1.5, 100.0),
               business=BusinessProfile(0.0, 0.0))


def intake_config(num_vms=1):
    """A one-class config whose every band admits at once."""
    return SimConfig(num_tasks=1, num_vms=num_vms, class_rates=(1.0,),
                     allocation_bands=((1, 100, 1.0),))


class TestCollect:
    """Collection is run()'s intake: each job is validated once, on the way in."""

    def test_ack_carries_clock(self):
        report = run(intake_config(), [make_job(job_id="j9", arrival=10.0)])
        assert report.jobs[0].ack == 10.0

    def test_invalid_job_rejected(self):
        jobs = [make_job(job_id=0), make_job(job_id=1, exec_time=0.0)]
        report = run(intake_config(), jobs)
        bad = report.jobs[1]
        assert (bad.status, bad.reason) == ("rejected", "exec_time must be > 0")
        assert (bad.ack, bad.rank, bad.class_index, bad.chain_position) == (None,) * 4
        assert report.rejected == 1

    def test_infeasible_job_still_collected(self):
        job = make_job(due=100.0, exec_time=100.0, prep=5.0, arrival=1.0)
        rec = run(intake_config(), [job]).jobs[0]
        assert rec.ack == 1.0
        assert rec.status == "completed"

    def test_bulk_collection_drops_nothing(self):
        jobs = [make_job(job_id=i, arrival=float(i)) for i in range(2000)]
        report = run(intake_config(num_vms=2000), jobs)
        assert report.completed == 2000
        assert [r.ack for r in report.jobs] == [float(i) for i in range(2000)]
        assert len({r.job_id for r in report.jobs}) == 2000


class TestClassify:
    def test_best_rank_first_class(self):
        assert classify(1, 6) == 1

    def test_worst_rank_last_class(self):
        assert classify(100, 6) == 6

    def test_interior_rank(self):
        # ceil(55 * 6 / 100) = ceil(3.3) = 4
        assert classify(55, 6) == 4

    def test_single_class_takes_everything(self):
        for rank in (1, 50, 100):
            assert classify(rank, 1) == 1

    def test_all_ranks_land_in_range_and_monotone(self):
        for n in (1, 2, 3, 6, 10, 100):
            indices = [classify(r, n) for r in range(1, 101)]
            assert all(1 <= m <= n for m in indices)
            assert indices == sorted(indices)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            classify(1, 0)
        with pytest.raises(ValueError):
            classify(0, 6)


class TestQueueClass:
    def test_enqueue_assigns_sequential_positions(self):
        qc = QueueClass()
        assert [qc.enqueue(f"job{i}") for i in range(4)] == [1, 2, 3, 4]
        assert [qc.pop() for _ in range(4)] == ["job0", "job1", "job2", "job3"]

    def test_random_insertion_drains_in_chain_order(self):
        # Enqueues and pops interleave at random; items leave in position order.
        rng = random.Random(42)
        for _ in range(20):
            qc = QueueClass()
            positions, drained = {}, []
            for i in range(60):
                if qc.entries and rng.random() < 0.4:
                    drained.append(qc.pop())
                else:
                    positions[f"item{i}"] = qc.enqueue(f"item{i}")
            drained.extend(qc.pop() for _ in range(len(qc.entries)))
            assert list(positions.values()) == list(range(1, len(positions) + 1))
            assert drained == sorted(positions, key=positions.get)

    def test_peek_and_empty_errors(self):
        qc = QueueClass()
        with pytest.raises(IndexError):
            qc.peek()
        with pytest.raises(IndexError):
            qc.pop()
        qc.enqueue("x")
        assert qc.peek() == "x"
        assert len(qc.entries) == 1


class TestCheapestFit:
    def test_small_demand_gets_cheapest(self):
        entry = cheapest_fit(default_catalog(), ResourceDemand(1, 1.5, 100.0))
        assert entry.name == "m1.small"

    def test_cost_tie_resolved_by_catalog_order(self):
        # both xlarge shapes cost the same; the earlier catalog row wins
        entry = cheapest_fit(default_catalog(), ResourceDemand(1, 10.0, 1000.0))
        assert entry.name == "m1.xlarge"

    def test_nothing_fits(self):
        assert cheapest_fit(default_catalog(), ResourceDemand(16, 64.0, 5000.0)) is None


SMALL_FIT = default_catalog()[0]  # m1.small, the cheapest fit of make_job's demand


class TestTryAllocate:
    def test_certain_band_allocates_cheapest_fit(self):
        job = make_job()
        instance = cheapest_fit(default_catalog(), job.demand)
        assert instance == SMALL_FIT
        assert try_allocate(1.0, None) is True
        # run() grants each job its cheapest fit: m1.large is the cheapest
        # entry with 2 cores and 7 GB.
        big = make_job(job_id=1, demand=ResourceDemand(2, 7.0, 300.0))
        report = run(intake_config(num_vms=2), [make_job(), big])
        assert [r.instance for r in report.jobs] == ["m1.small", "m1.large"]

    def test_unsatisfiable_demand(self):
        job = make_job(job_id=1, demand=ResourceDemand(16, 64.0, 5000))
        message = (r"job 1: demand ResourceDemand\(processors=16, memory=64.0, storage=5000\) "
                   "exceeds every catalog entry")
        # run() raises it before any event, naming the job's own demand, not
        # that of job 0, which arrives later with the same demand as floats.
        later = make_job(job_id=0, arrival=5.0, demand=ResourceDemand(16, 64.0, 5000.0))
        with pytest.raises(UnsatisfiableDemandError, match=message):
            run(intake_config(), [later, job])

    # A draw of None stands for no draw: comparing it with p raises TypeError.
    def test_certain_band_draws_nothing(self):
        p = DEFAULT_ALLOCATION_BANDS[0][2]  # ranks 1..10
        assert p == 1.0
        assert try_allocate(p, None) is True

    def test_failed_draw_defers(self, monkeypatch):
        p = DEFAULT_ALLOCATION_BANDS[-1][2]  # ranks 91..100
        assert p == 0.3
        assert try_allocate(p, 0.5118216247002567) is False
        # run() retries a deferred job retry_interval after the attempt: the
        # job arrives at t=3, fails its first draw and is admitted at t=5.
        monkeypatch.setattr(simulator, "_uniforms", lambda seed, count, counter=None: np.array(
            [0.999, 0.0, 0.0, 0.0] * (count // 4)))
        cfg = replace(intake_config(), allocation_bands=((1, 100, 0.5),), retry_interval=2.0)
        rec = run(cfg, [make_job(arrival=3.0)]).jobs[0]
        assert (rec.retries, rec.start) == (1, 5.0)

    def test_success_fraction_tracks_band_probability(self):
        # empirical admission rate over 1e5 draws (draws 0..11 of each of
        # 8334 jobs) stays within +/- 0.02
        jobs = JobSet([make_job(job_id=i) for i in range(8334)])
        inputs = simulator._Inputs(SimConfig(num_tasks=1, seed=12345), jobs)
        n = 100_000
        draws = [inputs.draw(i, d) for i in range(len(jobs)) for d in range(12)][:n]
        for p in (0.7, 0.9):  # the bands of ranks 51..60 and 31..40
            successes = sum(try_allocate(p, u) for u in draws)
            assert abs(successes / n - p) <= 0.02


class TestUnfitJobs:
    """A job that no catalog entry fits is rejected while run() prepares its
    inputs, before any event: the error names the first such job to arrive."""

    def test_first_unfit_job_to_arrive_is_named(self):
        # Job 0 holds the only VM from t=0. Unfit job 1 arrives at t=1 with a
        # late deadline, and unfit job 2 at t=2 with a tight one, which ranks
        # it in the better class: job 2 would be offered the VM first, at job
        # 0's completion, as it is with a catalog entry that fits them. Job 1
        # arrived first, so job 1 is named.
        big = ResourceDemand(16, 64.0, 5000)
        jobs = [make_job(job_id=0), make_job(job_id=1, arrival=1.0, due=5000.0, demand=big),
                make_job(job_id=2, arrival=2.0, demand=big)]
        cfg = replace(intake_config(), class_rates=(0.5, 0.5))
        huge = ResourceCatalogEntry("huge", 16, 1, 64.0, 64, 5000, 9.9)
        fitted = run(replace(cfg, catalog=(*cfg.catalog, huge)), jobs).jobs
        assert [r.class_index for r in fitted] == [1, 2, 1]
        assert [r.start for r in fitted] == [0.0, 1300.0, 650.0]
        message = r"^job 1: demand ResourceDemand\(processors=16, memory=64.0, storage=5000\) "
        with pytest.raises(UnsatisfiableDemandError, match=message):
            run(cfg, jobs)

    def test_unfit_job_after_an_unstable_stop_raises(self):
        # With max_queue_length=1 the run stops at t=2, when job 2 is the
        # second job queued. Job 3, which nothing fits, would arrive after the
        # stop, but the run raises before it starts.
        cfg = replace(intake_config(), max_queue_length=1)
        jobs = [make_job(job_id=i, arrival=float(i)) for i in range(3)]
        stopped = run(cfg, jobs)
        assert stopped.unstable and stopped.makespan == 2.0
        unfit = make_job(job_id=3, arrival=3.0, demand=ResourceDemand(16, 64.0, 5000))
        with pytest.raises(UnsatisfiableDemandError, match="^job 3: "):
            run(cfg, [*jobs, unfit])


class TestMg1Waiting:
    def test_single_class_reduces_to_classic_result(self):
        # exponential service: mean 1, second moment 2; load 0.5 gives delay 1
        assert mg1_waiting([(0.5, 1.0, 2.0)]) == [1.0]

    def test_two_identical_classes_favor_the_first(self):
        w1, w2 = mg1_waiting([(0.3, 1.0, 2.0), (0.3, 1.0, 2.0)])
        assert w1 < w2

    def test_two_class_reference_values(self):
        w = mg1_waiting([(0.2, 1.0, 2.0), (0.2, 1.0, 2.0)])
        assert w[0] == pytest.approx(0.5)
        assert w[1] == pytest.approx(0.4 / (0.8 * 0.6))

    def test_unstable_load_raises(self):
        with pytest.raises(UnstableError) as err:
            mg1_waiting([(0.6, 1.0, 2.0), (0.6, 1.0, 2.0)])
        assert err.value.utilization == pytest.approx(1.2)

    def test_waits_non_decreasing_in_class_index(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            rates = rng.uniform(0.01, 0.2, k)
            means = rng.uniform(0.1, 2.0, k)
            if float(np.sum(rates * means)) >= 0.95:
                continue
            classes = [(float(r), float(m), float(2 * m * m)) for r, m in zip(rates, means)]
            waits = mg1_waiting(classes)
            assert all(a <= b for a, b in zip(waits, waits[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mg1_waiting([])
        with pytest.raises(ValueError):
            mg1_waiting([(0.0, 1.0, 2.0)])
