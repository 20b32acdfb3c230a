import random

import numpy as np
import pytest

from cloudsched.domain import (
    BusinessProfile,
    Job,
    PriorityRecord,
    ResourceDemand,
    default_catalog,
)
from cloudsched.queueing import (
    Acknowledgement,
    Allocated,
    AllocationTable,
    Deferred,
    JobRejectedError,
    QueueClass,
    ResourcePool,
    UnsatisfiableDemandError,
    UnstableError,
    cheapest_fit,
    class_service_rate,
    classify,
    collect,
    mg1_waiting,
    release,
    try_allocate,
)


def make_job(demand=None, due=700.0, exec_time=650.0, prep=5.0, job_id=0):
    return Job(id=job_id, arrival_time=0.0, due_time=due, exec_time=exec_time,
               prep_time=prep, demand=demand or ResourceDemand(1, 1.5, 100.0),
               business=BusinessProfile(0.0, 0.0))


class NoDraws:
    """A random stream that fails the test if anything draws from it."""

    def random(self):
        raise AssertionError("unexpected draw")


def record_with_rank(rank):
    return PriorityRecord(t_start=45.0, demand_weight=100.0, tp_score=70,
                          bp_score=0.0, resultant=float(101 - rank), rank=rank)


class TestCollect:
    def test_ack_carries_clock(self):
        ack = collect(make_job(job_id="j9"), 10.0)
        assert ack == Acknowledgement("j9", 10.0)

    def test_invalid_job_rejected(self):
        bad = make_job(exec_time=0.0)
        with pytest.raises(JobRejectedError):
            collect(bad, 0.0)

    def test_infeasible_job_still_collected(self):
        job = make_job(due=100.0, exec_time=100.0, prep=5.0)
        assert collect(job, 1.0).ack_time == 1.0

    def test_bulk_collection_drops_nothing(self):
        acks = [collect(make_job(job_id=i), float(i)) for i in range(2000)]
        assert len(acks) == 2000
        assert len({a.job_id for a in acks}) == 2000


class TestClassify:
    def test_best_rank_first_class(self):
        assert classify(record_with_rank(1), 6) == 1

    def test_worst_rank_last_class(self):
        assert classify(record_with_rank(100), 6) == 6

    def test_interior_rank(self):
        # ceil(55 * 6 / 100) = ceil(3.3) = 4
        assert classify(record_with_rank(55), 6) == 4

    def test_single_class_takes_everything(self):
        for rank in (1, 50, 100):
            assert classify(record_with_rank(rank), 1) == 1

    def test_all_ranks_land_in_range_and_monotone(self):
        for n in (1, 2, 3, 6, 10, 100):
            indices = [classify(record_with_rank(r), n) for r in range(1, 101)]
            assert all(1 <= m <= n for m in indices)
            assert indices == sorted(indices)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            classify(record_with_rank(1), 0)
        with pytest.raises(ValueError):
            classify(record_with_rank(0), 6)


class TestAllocationTable:
    def test_reference_band_values(self):
        table = AllocationTable()
        assert table.probability(5) == 1.0
        assert table.probability(35) == 0.9
        assert table.probability(55) == 0.7

    def test_extension_band(self):
        assert AllocationTable().probability(75) == 0.5

    def test_rank_domain(self):
        table = AllocationTable()
        with pytest.raises(ValueError):
            table.probability(0)
        with pytest.raises(ValueError):
            table.probability(101)

    def test_non_increasing_over_full_scale(self):
        table = AllocationTable()
        probs = [table.probability(r) for r in range(1, 101)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValueError):
            AllocationTable(((1, 50, 0.9),))  # does not reach 100
        with pytest.raises(ValueError):
            AllocationTable(((1, 60, 0.9), (50, 100, 0.8)))  # overlap
        with pytest.raises(ValueError):
            AllocationTable(((1, 50, 0.5), (51, 100, 0.9)))  # increasing


class TestQueueClass:
    def test_enqueue_assigns_sequential_positions(self):
        qc = QueueClass(1, 1.0)
        assert [qc.enqueue(f"job{i}") for i in range(4)] == [1, 2, 3, 4]
        assert [qc.pop() for _ in range(4)] == ["job0", "job1", "job2", "job3"]

    def test_random_insertion_drains_in_chain_order(self):
        rng = random.Random(42)
        for _ in range(20):
            positions = list(range(1, 30))
            rng.shuffle(positions)
            qc = QueueClass(2, 1.0)
            for n in positions:
                qc.push(n, f"item{n}")
            drained = [qc.pop() for _ in range(len(positions))]
            assert drained == [f"item{n}" for n in sorted(positions)]

    def test_peek_and_empty_errors(self):
        qc = QueueClass(1, 1.0)
        with pytest.raises(IndexError):
            qc.peek()
        with pytest.raises(IndexError):
            qc.pop()
        qc.enqueue("x")
        assert qc.peek() == "x"
        assert len(qc) == 1


class TestClassServiceRate:
    def test_rates_non_increasing_in_class_index(self):
        for n in (1, 2, 6, 10):
            rates = [class_service_rate(i, n, 2.0) for i in range(1, n + 1)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))
            assert all(r > 0 for r in rates)


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


class TestTryAllocate:
    def test_certain_band_allocates_cheapest_fit(self):
        pool = ResourcePool(10, default_catalog())
        rng = np.random.default_rng(0)
        outcome = try_allocate(make_job(), 5, pool, AllocationTable(), rng)
        assert isinstance(outcome, Allocated)
        assert outcome.instance.name == "m1.small"
        assert pool.in_use == 1

    def test_unsatisfiable_demand(self):
        pool = ResourcePool(10, default_catalog())
        job = make_job(demand=ResourceDemand(16, 64.0, 5000.0))
        with pytest.raises(UnsatisfiableDemandError):
            try_allocate(job, 5, pool, AllocationTable(), np.random.default_rng(0))

    def test_full_pool_defers_even_at_best_rank(self):
        pool = ResourcePool(1, default_catalog())
        pool.in_use = 1
        outcome = try_allocate(make_job(), 1, pool, AllocationTable(),
                               np.random.default_rng(0), clock=3.0, retry_interval=2.0)
        assert outcome == Deferred(retry_at=5.0)

    def test_certain_band_draws_nothing(self):
        pool = ResourcePool(10, default_catalog())
        outcome = try_allocate(make_job(), 5, pool, AllocationTable(), NoDraws())
        assert isinstance(outcome, Allocated)

    def test_full_pool_defers_without_drawing(self):
        pool = ResourcePool(1, default_catalog())
        pool.in_use = 1
        outcome = try_allocate(make_job(), 95, pool, AllocationTable(), NoDraws(),
                               clock=3.0, retry_interval=2.0)
        assert outcome == Deferred(retry_at=5.0)

    def test_failed_draw_defers(self):
        pool = ResourcePool(10, default_catalog())
        rng = np.random.default_rng(1)  # first draw is 0.5118216247002567
        outcome = try_allocate(make_job(), 95, pool, AllocationTable(), rng,
                               clock=0.0, retry_interval=1.0)
        assert outcome == Deferred(retry_at=1.0)
        assert pool.in_use == 0

    def test_success_fraction_tracks_band_probability(self):
        # empirical admission rate over 1e5 draws stays within +/- 0.02
        table = AllocationTable()
        for rank, p in ((55, 0.7), (35, 0.9)):
            pool = ResourcePool(5, default_catalog())
            rng = np.random.default_rng(12345)
            successes = 0
            n = 100_000
            for _ in range(n):
                outcome = try_allocate(make_job(), rank, pool, table, rng)
                if isinstance(outcome, Allocated):
                    successes += 1
                    release(pool, outcome.instance)
            assert abs(successes / n - p) <= 0.02


class TestResourcePool:
    def test_release_decrements(self):
        pool = ResourcePool(2, default_catalog())
        pool.in_use = 1
        release(pool)
        assert pool.in_use == 0

    def test_release_on_empty_pool_is_an_error(self):
        pool = ResourcePool(2, default_catalog())
        with pytest.raises(ValueError):
            release(pool)

    def test_feedback_zero_below_capacity(self):
        pool = ResourcePool(2, default_catalog())
        pool.record_saturation_delay(10.0)
        pool.in_use = 1
        assert pool.blank_time_feedback == 0.0
        pool.in_use = 2
        assert pool.blank_time_feedback > 0.0
        release(pool)
        assert pool.blank_time_feedback == 0.0

    def test_feedback_ewma_arithmetic(self):
        pool = ResourcePool(1, default_catalog())
        pool.in_use = 1
        pool.record_saturation_delay(5.0)
        assert pool.blank_time_feedback == pytest.approx(0.5)
        pool.record_saturation_delay(3.0)
        assert pool.blank_time_feedback == pytest.approx(0.9 * 0.5 + 0.1 * 3.0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResourcePool(0, default_catalog())


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
