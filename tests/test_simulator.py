import enum
import hashlib
import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cloudsched import simulator
from cloudsched.domain import (
    DEFAULT_ALLOCATION_BANDS,
    JOB_COLUMNS,
    BusinessProfile,
    Job,
    JobSet,
    ResourceCatalogEntry,
    ResourceDemand,
    SimConfig,
    valid_mask,
    validate_job,
)
from cloudsched.priority import WindowStats
from cloudsched.queueing import cheapest_fit
from cloudsched.simulator import (
    InsufficientSamplesError,
    SimReport,
    compare_analytic,
    replication_bundle,
    run,
    waiting_time_model,
    window_stats_by_epoch,
)
from cloudsched.workload import Distribution, WorkloadSpec, sample_jobs
from reference import COLUMNS, SUMMARY, reference_run

ALL_ONE_BANDS = tuple((lo, lo + 9, 1.0) for lo in range(1, 100, 10))
MODES = ("native", "resultant")


def make_job(job_id=0, arrival=0.0, due=700.0, exec_time=650.0, prep=5.0,
             demand=None, business=None):
    return Job(id=job_id, arrival_time=arrival, due_time=due, exec_time=exec_time,
               prep_time=prep, demand=demand or ResourceDemand(1, 1.5, 100.0),
               business=business or BusinessProfile(0.0, 0.0))


def fixed_jobs(cfg):
    """cfg's jobs with due, exec and prep fixed at its times."""
    return sample_jobs(cfg, WorkloadSpec.fixed(cfg))


def small_config(**kwargs):
    defaults = dict(num_tasks=1, num_vms=1, arrival_rate=1.0, class_rates=(1.0,),
                    allocation_bands=ALL_ONE_BANDS, seed=3)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def _script_draws(monkeypatch, failures: dict) -> None:
    """Make the first failures[i] draws of job index i fail (0.999) and the
    later ones admit (0.0), in place of the Philox draws."""
    def scripted(seed, count, counter=None):
        first, block = (0, 0) if counter is None else counter[:2]
        return np.array([0.999 if 4 * block + j < failures.get(i, 0) else 0.0
                         for i in range(first, first + count // 4) for j in range(4)])

    monkeypatch.setattr(simulator, "_uniforms", scripted)


class TestEventOrdering:
    """Same-instant events: completions, then arrivals, then retries; ties by job id."""

    def test_completion_frees_capacity_before_same_instant_arrival(self):
        # Job 0 completes at t=650 on the only VM, the instant job 2 (a better
        # class) arrives. The completion runs first and hands the VM to job 1,
        # which has queued since t=1; job 2 finds the pool full.
        cfg = small_config(class_rates=(0.5, 0.5))
        jobs = [make_job(job_id=0),
                make_job(job_id=1, arrival=1.0, due=700.0, exec_time=5.0, prep=0.0,
                         demand=ResourceDemand(1, 1.0, 0.0)),
                make_job(job_id=2, arrival=650.0)]
        first, queued, arriving = run(cfg, jobs).jobs
        assert (queued.class_index, arriving.class_index) == (2, 1)
        assert first.completion == 650.0
        assert queued.allocation == 650.0
        assert arriving.allocation == queued.completion == 655.0

    def test_completion_precedes_same_instant_retry(self, monkeypatch):
        # Job 1 fails its draws at t=0..9, so it retries at t=10, the instant
        # job 0 completes. Job 2 fills the second VM at t=9.5 and job 3 queues
        # behind it. The completion runs first: its pump skips job 1, which
        # waits for its retry, and gives the VM to job 3.
        _script_draws(monkeypatch, failures={1: 10})
        cfg = small_config(num_vms=2, class_rates=(0.5, 0.5),
                           allocation_bands=((1, 100, 0.5),))
        tiny = ResourceDemand(1, 1.0, 0.0)
        jobs = [make_job(job_id=0, due=700.0, exec_time=10.0, prep=0.0),
                make_job(job_id=1, due=100.0, exec_time=5.0, prep=0.0),
                make_job(job_id=2, arrival=9.5, due=2000.0, exec_time=1000.0, prep=0.0,
                         demand=tiny),
                make_job(job_id=3, arrival=9.6, due=2000.0, exec_time=5.0, prep=0.0,
                         demand=tiny)]
        first, retrying, filler, queued = run(cfg, jobs).jobs
        assert [r.class_index for r in (retrying, filler, queued)] == [1, 2, 2]
        assert (first.completion, filler.allocation) == (10.0, 9.5)
        assert queued.allocation == 10.0
        assert retrying.retries == 10
        assert retrying.allocation == queued.completion == 15.0

    def test_arrival_precedes_same_instant_retry(self, monkeypatch):
        # Job 1 fails its draw when the VM frees at t=9.5 and retries at t=10.5,
        # the instant job 2 (a better class) arrives. The arrival is handled
        # first and takes the VM; the retry finds the pool full.
        _script_draws(monkeypatch, failures={1: 1})
        cfg = small_config(class_rates=(0.5, 0.5), allocation_bands=((1, 100, 0.5),))
        jobs = [make_job(job_id=0, due=700.0, exec_time=9.5, prep=0.0),
                make_job(job_id=1, due=700.0, exec_time=5.0, prep=0.0,
                         demand=ResourceDemand(1, 1.0, 0.0)),
                make_job(job_id=2, arrival=10.5, due=100.0, exec_time=5.0, prep=0.0)]
        first, retrying, arriving = run(cfg, jobs).jobs
        assert (retrying.class_index, arriving.class_index) == (2, 1)
        assert first.completion == 9.5
        assert arriving.allocation == 10.5
        assert retrying.retries == 1
        assert retrying.allocation == arriving.completion == 15.5

    def test_id_tie_break_orders_mixed_int_and_str_ids(self):
        # Ints before strings, ints by value (2 before 10), strings by text.
        ids = ["b", 10, "a", 2]
        report = run(small_config(), [make_job(job_id=i) for i in ids])
        by_id = {r.job_id: r for r in report.jobs}
        assert [by_id[i].chain_position for i in (2, 10, "a", "b")] == [1, 2, 3, 4]
        assert [by_id[i].start for i in (2, 10, "a", "b")] == [0.0, 650.0, 1300.0, 1950.0]


class TestSingleJob:
    def test_uncontended_job_waits_zero_and_meets_deadline(self):
        report = run(small_config(), [make_job()])
        rec = report.jobs[0]
        assert rec.status == "completed"
        assert rec.wait == 0.0
        assert rec.deadline_met is True
        assert report.completed == 1

    def test_t_start_slack_recorded(self):
        report = run(small_config(), [make_job()])
        assert report.jobs[0].t_start == 45.0


class TestCapacitySerialization:
    def test_full_pool_defers_without_drawing(self, monkeypatch):
        # Job 1 arrives at t=1 while job 0 holds the only VM until t=650, and
        # every draw admits. While the VM is busy, job 1 is not offered it:
        # it uses no draw and counts no retry. Its first draw is made at the
        # completion.
        _script_draws(monkeypatch, failures={})
        used = _record_draws(monkeypatch)
        first, queued = run(small_config(allocation_bands=((1, 100, 0.5),)),
                            [make_job(job_id=0), make_job(job_id=1, arrival=1.0)]).jobs
        assert first.completion == queued.start == 650.0
        assert queued.retries == 0
        assert used == [(0, 0.0), (1, 0.0)]

    def test_second_identical_job_waits_at_least_one_service(self):
        jobs = [make_job(job_id=0), make_job(job_id=1)]
        report = run(small_config(), jobs)
        waits = {r.job_id: r.wait for r in report.jobs}
        assert waits[0] == 0.0
        assert waits[1] >= jobs[0].exec_time

    def test_non_preemption_on_single_server(self):
        rng = np.random.default_rng(5)
        arrivals = np.cumsum(rng.exponential(2.0, 200))
        services = rng.exponential(1.0, 200)
        jobs = [make_job(job_id=i, arrival=float(arrivals[i]), due=1e9,
                         exec_time=float(services[i]), prep=0.0) for i in range(200)]
        report = run(small_config(), jobs)
        done = sorted((r for r in report.jobs if r.status == "completed"),
                      key=lambda r: r.start)
        for a, b in zip(done, done[1:]):
            assert b.start >= a.completion  # service intervals never overlap


class TestChainOrder:
    def test_better_class_wins(self):
        # Job 1 queues first, but job 2 is in a better class, so it takes the
        # server when job 0 completes.
        cfg = SimConfig(num_tasks=3, num_vms=1, allocation_bands=ALL_ONE_BANDS, seed=3)
        jobs = [make_job(job_id=0), make_job(job_id=1, arrival=1.0, due=3000.0),
                make_job(job_id=2, arrival=2.0)]
        first, worse, better = run(cfg, jobs).jobs
        assert better.class_index < worse.class_index
        assert better.start == first.completion
        assert worse.start == better.completion


class TestDeadlineQos:
    """deadline_met: completed on or before arrival + due time; None if never completed."""

    def test_ahead_of_deadline_is_good(self):
        report = run(small_config(), [make_job(due=700.0, exec_time=690.0, prep=0.0)])
        assert report.jobs[0].deadline_met is True

    def test_boundary_is_good(self):
        report = run(small_config(), [make_job(due=700.0, exec_time=700.0, prep=0.0)])
        rec = report.jobs[0]
        assert rec.completion == rec.arrival + 700.0
        assert rec.deadline_met is True

    def test_past_deadline_is_poor(self):
        report = run(small_config(), [make_job(due=700.0, exec_time=701.0, prep=0.0)])
        assert report.jobs[0].deadline_met is False

    def test_uncompleted_record_is_an_error(self):
        report = run(small_config(max_retries=1,
                                  allocation_bands=((1, 100, 0.01),)),
                     [make_job()])
        stuck = report.jobs[0]
        assert stuck.status == "stuck"
        assert stuck.completion is None
        assert stuck.deadline_met is None


class TestRunContract:
    def test_empty_job_list_rejected(self):
        with pytest.raises(ValueError):
            run(small_config(), [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run(small_config(), [make_job()], mode="hybrid")

    @pytest.mark.parametrize("mode", MODES)
    def test_bands_in_any_order_give_the_same_run(self, mode):
        # The mixed scenario's jobs fill all ten default bands and retry, so
        # each band's probability and wait must land on its own ranks. The
        # reversed bands are lists and tuples, as a library caller may mix them.
        cfg, spec = _scenario("mixed")
        jobs = sample_jobs(cfg, spec)
        mixed = [list(band) if i % 2 else band
                 for i, band in enumerate(DEFAULT_ALLOCATION_BANDS[::-1])]
        ordered, reversed_ = [run(replace(cfg, allocation_bands=bands), jobs, mode=mode)
                              for bands in (DEFAULT_ALLOCATION_BANDS, mixed)]
        assert len(ordered.band_waits) == 10 and sum(ordered.columns["retries"]) > 0
        assert reversed_.columns == ordered.columns
        assert list(reversed_.band_waits.items()) == list(ordered.band_waits.items())
        assert list(reversed_.class_sls.items()) == list(ordered.class_sls.items())

    def test_invalid_jobs_are_rejected_not_simulated(self):
        jobs = [make_job(job_id=0), make_job(job_id=1, exec_time=0.0)]
        report = run(small_config(), jobs)
        statuses = {r.job_id: r.status for r in report.jobs}
        assert statuses[0] == "completed"
        assert statuses[1] == "rejected"
        assert report.rejected == 1
        assert report.jobs[1].reason == "exec_time must be > 0"

    def test_non_finite_jobs_are_rejected_before_the_queue(self, monkeypatch):
        # The column pass validates every job at once; validate_job runs only
        # for the jobs it rejects, to give their reasons, and the window
        # reduction sees the columns of the admitted jobs only.
        windowed, validated = [], []
        real_windows, real_validate = simulator.window_stats_by_epoch, simulator.validate_job

        def windows(columns, *args):
            windowed.append(columns.copy())
            return real_windows(columns, *args)

        def validate(job, *args):
            validated.append(job.id)
            return real_validate(job, *args)

        monkeypatch.setattr(simulator, "window_stats_by_epoch", windows)
        monkeypatch.setattr(simulator, "validate_job", validate)
        jobs = [make_job(job_id=0), make_job(job_id=1, due=math.nan),
                make_job(job_id=2, arrival=math.nan), make_job(job_id=3, arrival=math.inf)]
        report = run(small_config(num_vms=4), jobs)
        assert [r.status for r in report.jobs] == ["completed", "rejected", "rejected",
                                                   "rejected"]
        assert [r.reason for r in report.jobs[1:]] == [
            "due_time must be finite", "arrival_time must be finite",
            "arrival_time must be finite"]
        assert all(r.ack is None and r.class_index is None for r in report.jobs[1:])
        assert len(windowed) == 1
        assert windowed[0].tolist() == JobSet(jobs[:1]).columns.tolist()  # job 0 only
        assert validated == [1, 2, 3]  # once per rejected job

    def test_rejected_arrival_does_not_extend_makespan(self):
        jobs = [make_job(job_id=0), make_job(job_id=1, arrival=5000.0, exec_time=0.0)]
        report = run(small_config(), jobs)
        assert report.rejected == 1
        assert report.makespan == 650.0

    @pytest.mark.parametrize("processors", [math.nan, math.inf, -math.inf])
    def test_non_finite_processor_count_rejected_with_reason(self, processors):
        jobs = [make_job(job_id=0), make_job(job_id=1, arrival=1.0,
                                             demand=ResourceDemand(processors, 1.5, 100.0))]
        report = run(small_config(num_vms=2), jobs)
        assert report.columns["status"] == ["completed", "rejected"]
        assert report.columns["reason"] == [None, "processors must be finite"]

    def test_duplicate_job_id_rejected(self):
        jobs = [make_job(job_id="a"), make_job(job_id="b"), make_job(job_id="a")]
        with pytest.raises(ValueError, match="duplicate job id 'a'"):
            run(small_config(), jobs)

    def test_conservation(self):
        cfg = small_config(num_vms=3)
        jobs = [make_job(job_id=i, arrival=float(i) * 0.1) for i in range(50)]
        jobs.append(make_job(job_id=99, exec_time=0.0))
        report = run(cfg, jobs)
        assert report.completed + report.rejected + report.stuck == len(jobs)

    def test_causality(self):
        cfg = SimConfig(num_tasks=300, seed=11)
        jobs = fixed_jobs(cfg)
        report = run(cfg, jobs)
        for rec in report.jobs:
            if rec.status != "completed":
                continue
            assert rec.arrival == rec.ack
            assert rec.ack <= rec.allocation <= rec.start <= rec.completion

    def test_determinism_byte_identical(self):
        cfg = SimConfig(num_tasks=400, seed=21)
        jobs = fixed_jobs(cfg)
        a = run(cfg, jobs)
        b = run(cfg, jobs)
        assert a.to_json() == b.to_json()

    def test_utilization_bounded(self):
        cfg = SimConfig(num_tasks=500, seed=2)
        jobs = fixed_jobs(cfg)
        report = run(cfg, jobs)
        assert 0.0 < report.utilization <= 1.0
        assert report.total_cost > 0.0

    def test_stuck_job_reported_with_reason(self):
        cfg = small_config(max_retries=2, allocation_bands=((1, 100, 0.01),))
        report = run(cfg, [make_job()])
        rec = report.jobs[0]
        assert rec.status == "stuck"
        assert "max_retries" in rec.reason
        assert report.stuck == 1

    def test_queue_growth_flags_unstable(self):
        cfg = small_config(num_vms=1, max_queue_length=5)
        jobs = [make_job(job_id=i, arrival=0.0) for i in range(10)]
        report = run(cfg, jobs)
        assert report.unstable is True

    def test_unstable_stop_keeps_start_of_allocated_job(self):
        # Job 0 is allocated at t=0, then the queue overflows at the same instant.
        cfg = small_config(num_vms=1, max_queue_length=1)
        jobs = [make_job(job_id=i, arrival=0.0) for i in range(3)]
        report = run(cfg, jobs)
        assert report.unstable is True
        first = report.jobs[0]
        assert first.status == "pending"
        assert first.allocation == first.start == 0.0
        assert first.wait == 0.0
        assert [r.start for r in report.jobs[1:]] == [None, None]

    def test_unstable_stop_leaves_later_jobs_unscored(self):
        # The queue overflows at t=0, so job 3, due at t=5, never arrives: it
        # has no ack, priority or class. No job completes, and the total cost
        # is the empty sum, 0.
        cfg = small_config(num_vms=1, max_queue_length=1)
        jobs = [make_job(job_id=i, arrival=0.0) for i in range(3)]
        jobs.append(make_job(job_id=3, arrival=5.0))
        report = run(cfg, jobs)
        assert report.unstable is True
        assert report.jobs[2].rank is not None
        later = report.jobs[3]
        assert later.status == "pending"
        assert (later.ack, later.t_start, later.demand_weight, later.tp_score,
                later.bp_score, later.resultant, later.rank, later.class_index,
                later.chain_position) == (None,) * 9
        assert '"total_cost":0,' in report.to_json()

    def test_report_round_trip(self):
        cfg = small_config(num_vms=2)
        jobs = [make_job(job_id=i, arrival=float(i)) for i in range(5)]
        report = run(cfg, jobs)
        again = SimReport.from_dict(json.loads(report.to_json()))
        assert again == report


class TestPairedModes:
    def test_boosted_jobs_never_lose_rank(self):
        cfg = SimConfig(num_tasks=300, seed=13)
        jobs = fixed_jobs(cfg)
        native = run(cfg, jobs, mode="native")
        resultant = run(cfg, jobs, mode="resultant")
        nat = {r.job_id: r for r in native.jobs}
        for rec in resultant.jobs:
            if rec.tp_score is not None and rec.tp_score > cfg.beta and rec.bp_score > 0:
                assert rec.rank <= nat[rec.job_id].rank
                assert rec.resultant >= nat[rec.job_id].resultant

    def test_modes_share_technical_scores(self):
        cfg = SimConfig(num_tasks=200, seed=14)
        jobs = fixed_jobs(cfg)
        native = run(cfg, jobs, mode="native")
        resultant = run(cfg, jobs, mode="resultant")
        for a, b in zip(native.jobs, resultant.jobs):
            assert a.tp_score == b.tp_score
            assert a.bp_score == b.bp_score


# Two entries that fit every valid job of _job_lists, one cheaper for small demands.
PAIRED_CATALOG = (ResourceCatalogEntry("small", 2, 1, 10.0, 64, 1000.0, 0.1),
                  ResourceCatalogEntry("huge", 8, 1, 1e6, 64, 1e6, 1.0))


@st.composite
def _paired_cases(draw):
    """(config, jobs): jobs of _job_lists, some of them rejected, with ids that
    mix ints and strings, on a config whose queue may overflow (an unstable
    stop) and whose jobs may draw, retry and get stuck. Under the last bands a
    boosted job may get stuck in the native run only."""
    epoch_length = draw(st.sampled_from(EPOCH_LENGTHS))
    jobs = draw(_job_lists(epoch_length, st.sampled_from([math.nan, math.inf, 0, -1])))
    ids = draw(st.lists(st.integers(-3, 30) | st.text("ab1", min_size=1, max_size=2),
                        min_size=len(jobs), max_size=len(jobs), unique=True))
    config = small_config(
        num_vms=draw(st.integers(1, 3)), class_rates=(0.5, 0.5), epoch_length=epoch_length,
        catalog=PAIRED_CATALOG, max_queue_length=draw(st.sampled_from([2, 5, 1_000_000])),
        max_retries=draw(st.sampled_from([1, 4, 1_000_000])),
        retry_interval=draw(st.sampled_from([1.0, 2.5])),
        allocation_bands=draw(st.sampled_from([((1, 100, 0.5),), DEFAULT_ALLOCATION_BANDS,
                                                ((1, 30, 1.0), (31, 100, 0.05))])))
    return config, [replace(job, id=job_id) for job, job_id in zip(jobs, ids)]


PAIRED_EXAMPLES = {
    # Five jobs at t=0 on one VM with a queue of two: the run stops unstable.
    # Job 10 is rejected, and the ids mix ints with strings.
    "unstable": (
        small_config(num_vms=1, class_rates=(0.5, 0.5), max_queue_length=2, max_retries=3,
                     allocation_bands=((1, 100, 0.5),), catalog=PAIRED_CATALOG),
        [make_job(job_id=i, exec_time=0.0 if i == 10 else 650.0,
                  business=BusinessProfile(100.0 * n, 0.0))
         for n, i in enumerate(["b", 10, "a", 2, 7])]),
    # Job 2 ranks 36 natively and 26 boosted: it gets stuck in the native run
    # only, and job 1 in both.
    "stuck_in_native": (
        small_config(num_vms=2, class_rates=(0.5, 0.5), max_retries=1, catalog=PAIRED_CATALOG,
                     allocation_bands=((1, 30, 1.0), (31, 100, 0.05))),
        [make_job(job_id=0, due=700.0, exec_time=650.0, prep=0.0),
         make_job(job_id=1, arrival=1.0, due=750.0, exec_time=650.0, prep=0.0),
         make_job(job_id=2, arrival=2.0, due=725.0, exec_time=650.0, prep=0.0,
                  demand=ResourceDemand(2, 4.0, 200.0), business=BusinessProfile(1000.0, 0.0))]),
    # Job 0 fails its first draw at t=0 and retries at t=1, the instant job
    # "1" arrives. The arrival goes first and overflows the queue of two; the
    # retry would have admitted job 0.
    "retry_meets_arrival": (
        small_config(num_vms=1, class_rates=(0.5, 0.5), epoch_length=1.0, max_queue_length=2,
                     max_retries=1, allocation_bands=((1, 100, 0.5),), catalog=PAIRED_CATALOG),
        [make_job(job_id=job_id, arrival=arrival, due=1, exec_time=1, prep=0,
                  demand=ResourceDemand(1, 1, 0))
         for job_id, arrival in ((0, 0), (1, 0), ("1", 1))]),
}


def _with_paired_examples(test):
    for case in PAIRED_EXAMPLES.values():
        for native_first in (True, False):
            test = example(case=case, native_first=native_first)(test)
    return test


class TestJobSet:
    """A JobSet prepares the inputs both modes share once; runs over it give
    the reports of runs over the plain job list."""

    @_with_paired_examples
    @settings(max_examples=60, deadline=None)
    @given(case=_paired_cases(), native_first=st.booleans())
    def test_paired_runs_equal_independent_runs(self, case, native_first):
        config, jobs = case
        modes = ("native", "resultant") if native_first else ("resultant", "native")
        independent = [run(config, list(jobs), mode=mode).to_json() for mode in modes]
        # The set built from value lists, as sample_jobs and load_jobs build
        # it, and the set built from its Job objects.
        from_columns = JobSet.from_columns(
            [job.id for job in jobs], [list(map(attrgetter(name), jobs)) for name in JOB_COLUMNS])
        for job_set in (from_columns, JobSet(list(from_columns))):
            paired = [run(config, job_set, mode=mode).to_json() for mode in modes]
            assert paired == independent

    @given(case=_paired_cases())
    @example(case=PAIRED_EXAMPLES["unstable"])
    def test_jobs_come_back_with_their_types(self, case):
        _config, jobs = case
        job_set = JobSet(jobs)
        # repr tells an int from a float, and -0.0 from 0.0.
        assert repr(list(job_set)) == repr(jobs)
        assert [repr(job_set[i]) for i in range(-len(jobs), len(jobs))] == list(
            map(repr, jobs + jobs))
        assert list(job_set[1::2]) == jobs[1::2]
        assert job_set == JobSet(list(job_set)) and len(job_set) == len(jobs)

    def test_from_columns_takes_one_list_per_field_of_one_length(self):
        with pytest.raises(ValueError, match="expected 9 value lists of 1 values"):
            JobSet.from_columns([0], [[0.0]] * 8)
        with pytest.raises(ValueError, match="expected 9 value lists of 2 values"):
            JobSet.from_columns([0, 1], [[0.0, 1.0]] * 8 + [[0.0]])

    def test_reports_do_not_share_the_job_set_lists(self):
        cfg = SimConfig(num_tasks=50, seed=3)
        job_set = fixed_jobs(cfg)
        jobs = list(job_set)
        native = run(cfg, job_set, mode="native")
        resultant = run(cfg, job_set, mode="resultant")
        texts = [native.to_json(), resultant.to_json()]
        for name in ("job_id", "arrival", "due"):
            native.columns[name][0] = 1e9
        assert resultant.to_json() == texts[1]
        assert [run(cfg, job_set, mode=mode).to_json() for mode in MODES] == texts
        assert list(job_set) == jobs

    def test_examples_reach_their_corners(self):
        config, jobs = PAIRED_EXAMPLES["unstable"]
        for mode in ("native", "resultant"):
            report = run(config, jobs, mode=mode)
            assert report.unstable and report.rejected == 1
            assert report.columns["status"].count("pending") >= 2
        config, jobs = PAIRED_EXAMPLES["stuck_in_native"]
        assert [run(config, jobs, mode=mode).columns["status"] for mode in MODES] == [
            ["completed", "stuck", "stuck"], ["completed", "stuck", "completed"]]
        config, jobs = PAIRED_EXAMPLES["retry_meets_arrival"]
        report = run(config, jobs)
        assert report.unstable and report.makespan == 1
        assert (report.columns["start"], report.columns["retries"]) == ([None] * 3, [1, 0, 0])

    def test_inputs_are_prepared_once_per_config(self, monkeypatch):
        calls = []
        real_windows = simulator.window_stats_by_epoch

        def windows(*args):
            calls.append(args)
            return real_windows(*args)

        monkeypatch.setattr(simulator, "window_stats_by_epoch", windows)
        cfg = SimConfig(num_tasks=50, seed=3)
        job_set = simulator.JobSet(fixed_jobs(cfg))
        run(cfg, job_set, mode="native")
        run(replace(cfg), job_set, mode="resultant")  # an equal config
        assert len(calls) == 1
        run(replace(cfg, epoch_length=30.0), job_set)
        assert len(calls) == 2
        run(cfg, list(job_set))  # a plain list prepares its own
        assert len(calls) == 3

    def test_one_try_allocate_call_per_attempt(self, monkeypatch):
        # Every attempt either allocates the job or counts one retry, in both
        # modes, with the queue loaded (600 VMs below the offered load).
        calls = []
        real_try_allocate = simulator.try_allocate

        def try_allocate(*args):
            calls.append(args[0])
            return real_try_allocate(*args)

        monkeypatch.setattr(simulator, "try_allocate", try_allocate)
        cfg = SimConfig(num_tasks=20_000, num_vms=600, seed=7)
        job_set = simulator.JobSet(fixed_jobs(cfg))
        for mode in ("native", "resultant"):
            calls.clear()
            report = run(cfg, job_set, mode=mode)
            allocated = sum(start is not None for start in report.columns["start"])
            retries = sum(report.columns["retries"])
            assert retries > 0 and allocated == cfg.num_tasks
            assert len(calls) == allocated + retries


def _with_reference_examples(test):
    for case in PAIRED_EXAMPLES.values():
        test = example(case=case, w_urgency=0.7)(test)
    return test


def _one_exec_cases():
    """_paired_cases with each valid job's exec time set to one float, so that
    every admitted job has it: 1.0, 2.5 (the longer retry interval), 650.0 or
    any in [1e-3, 1e4]. An exec time that rejects its job is kept."""
    def with_exec(pair):
        (config, jobs), exec_time = pair
        return config, [replace(job, exec_time=exec_time) if 0 < job.exec_time < math.inf
                        else job for job in jobs]

    return st.tuples(_paired_cases(),
                     st.sampled_from([1.0, 2.5, 650.0]) | st.floats(1e-3, 1e4)).map(with_exec)


ONE_EXEC_CONFIG = small_config(num_vms=2, class_rates=(0.5, 0.5), catalog=PAIRED_CATALOG,
                               max_queue_length=1_000_000)
ONE_EXEC_EXAMPLES = {
    # Four jobs at t=0 and one at t=5 on two VMs, each served 2.5 s: two
    # completions at each of t=2.5 and t=5.0, the last two tied with the
    # arrival at t=5.
    "completion_ties": (ONE_EXEC_CONFIG, [
        make_job(job_id=job_id, arrival=arrival, due=due, exec_time=2.5, prep=0.0)
        for job_id, arrival, due in (("b", 0.0, 10.0), (3, 0.0, 700.0), ("a", 0.0, 5.0),
                                     (1, 0.0, 300.0), (0, 5, 20.0))]),
    # Two VMs: job 1 starts at the int 0 and completes at the int 650; job 0
    # starts at 1e-14 and completes at the float 650.0, the value 650 again.
    # A heap takes job 0 first, by id, so job 2 (queued since t=1) starts at
    # 650.0; start order would start it at the int 650.
    "int_and_float_exec": (ONE_EXEC_CONFIG, [
        make_job(job_id=0, arrival=1e-14, exec_time=650.0, prep=0.0),
        make_job(job_id=1, arrival=0, exec_time=650, prep=0.0),
        make_job(job_id=2, arrival=1, exec_time=650.0, prep=0.0)]),
    # Every job is rejected, so no job has an exec time.
    "all_rejected": (ONE_EXEC_CONFIG, [make_job(job_id=i, exec_time=0.0) for i in range(3)]),
}


def _with_one_exec_examples(test):
    for case in ONE_EXEC_EXAMPLES.values():
        test = example(case=case, w_urgency=0.7)(test)
    return test


def _assert_agrees_with_reference(config, jobs):
    for mode in MODES:
        report = run(config, jobs, mode=mode)
        columns, summary = reference_run(config, jobs, mode)
        # repr tells an int time from a float one.
        assert repr({name: report.columns[name] for name in COLUMNS}) == repr(columns)
        assert repr({name: getattr(report, name) for name in SUMMARY}) == repr(summary)


class TestReferenceEngine:
    """run() against tests/reference.py, a plain engine that shares no code
    with it: one heap of events, every class offered at every event, and
    each draw built from its definition."""

    @_with_reference_examples
    @settings(max_examples=150, deadline=None)
    @given(case=_paired_cases(), w_urgency=st.sampled_from([0.0, 0.5, 0.7, 1.0]))
    def test_run_agrees_with_the_reference_engine(self, case, w_urgency):
        config, jobs = case
        _assert_agrees_with_reference(replace(config, w_urgency=w_urgency), jobs)

    @_with_one_exec_examples
    @settings(max_examples=60, deadline=None)
    @given(case=_one_exec_cases(), w_urgency=st.sampled_from([0.0, 0.5, 0.7, 1.0]))
    def test_one_exec_time_agrees_with_the_reference_engine(self, case, w_urgency):
        # Every admitted job has one float exec time, so run() takes its
        # completions in start order, where the reference takes them by id.
        config, jobs = case
        _assert_agrees_with_reference(replace(config, w_urgency=w_urgency), jobs)

    def test_completions_come_from_a_fifo_only_for_one_float_exec_time(self):
        config = small_config(catalog=PAIRED_CATALOG)
        cases = {name: jobs for name, (_config, jobs) in ONE_EXEC_EXAMPLES.items()}
        cases["varied"] = [make_job(job_id=i, exec_time=1.0 + i) for i in range(3)]
        same_exec = {name: JobSet(jobs).prepared(config, simulator._Inputs).same_exec
                     for name, jobs in cases.items()}
        assert same_exec == {"completion_ties": True, "int_and_float_exec": False,
                             "all_rejected": False, "varied": False}
        completions = Counter(run(*ONE_EXEC_EXAMPLES["completion_ties"]).columns["completion"])
        assert completions == {2.5: 2, 5.0: 2, 7.5: 1}


class TestConservationLaw:
    """Kleinrock's conservation law: with every band at p = 1 and one exec
    time, the pool is work-conserving, non-preemptive and serves every job
    for the same time, so the start times cannot depend on the order of
    service: the native and resultant runs start jobs at the instants a
    single first-come-first-served class does."""

    @settings(max_examples=40, deadline=None)
    @given(case=st.tuples(_one_exec_cases(), st.integers(1, 4)).map(
        lambda pair: (replace(pair[0][0], num_vms=pair[1], allocation_bands=ALL_ONE_BANDS,
                              max_queue_length=1_000_000), pair[0][1])))
    def test_start_times_do_not_depend_on_the_order_of_service(self, case):
        config, jobs = case
        reports = [run(config, jobs, mode=mode) for mode in MODES]
        reports.append(run(replace(config, class_rates=(1.0,)), jobs))
        assert not any(report.unstable or report.stuck for report in reports)
        # Compared as values: one instant may be an int arrival in one run
        # and the equal float completion in another.
        starts = [sorted(t for t in report.columns["start"] if t is not None)
                  for report in reports]
        assert starts[0] == starts[1] == starts[2]


class TestWaitingTimeModel:
    def test_native_grid_exact(self):
        expected = {10: 4, 20: 6, 30: 8, 40: 10, 50: 12, 60: 14, 70: 16, 80: 18,
                    90: 20, 100: 22}
        for p, hours in expected.items():
            assert waiting_time_model(p, "native") == hours

    def test_resultant_grid_exact(self):
        expected = {8: 2, 18: 4, 28: 6, 38: 8, 48: 10, 58: 12, 68: 14, 78: 16,
                    88: 18, 98: 20}
        for p, hours in expected.items():
            assert waiting_time_model(p, "resultant") == hours

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            waiting_time_model(9, "native")
        with pytest.raises(ValueError):
            waiting_time_model(101, "native")
        with pytest.raises(ValueError):
            waiting_time_model(7, "resultant")
        with pytest.raises(ValueError):
            waiting_time_model(99, "resultant")
        with pytest.raises(ValueError):
            waiting_time_model(50, "blended")


@pytest.fixture(scope="module")
def bundle():
    cfg = SimConfig(num_tasks=150, num_vms=200, seed=5)
    rows, _report = replication_bundle(cfg, WorkloadSpec.fixed(cfg))
    return rows


class TestReplicationBundle:
    def test_priority_boost_series(self, bundle):
        boost = {r.x: r.value for r in bundle if r.series == "priority_boost"}
        assert boost == {"80": 90.0, "78": 88.0, "76": 86.0, "74": 84.0,
                         "72": 82.0, "70": 80.0, "60": 60.0, "58": 58.0}

    def test_band_series(self, bundle):
        bands = {r.x: r.value for r in bundle if r.series == "allocation_band"}
        assert bands["1-10"] == 1.0
        assert bands["11-20"] == 1.0
        assert bands["21-30"] == 0.9
        assert bands["31-40"] == 0.9
        assert bands["41-50"] == 0.8
        assert bands["51-60"] == 0.7

    def test_wait_model_series(self, bundle):
        native = {r.x: r.value for r in bundle if r.series == "wait_model_native"}
        resultant = {r.x: r.value for r in bundle if r.series == "wait_model_resultant"}
        assert native["10"] == 4.0 and native["100"] == 22.0
        assert resultant["8"] == 2.0 and resultant["98"] == 20.0
        assert len(native) == len(resultant) == 10

    def test_simulated_series_present_and_monotone(self, bundle):
        sim_rows = [r for r in bundle if r.series == "wait_simulated"]
        assert sim_rows
        assert all(r.provenance == "simulated" for r in sim_rows)
        values = [r.value for r in sim_rows]  # rows arrive in band order
        assert values == sorted(values)

    def test_model_rows_labeled(self, bundle):
        assert all(r.provenance == "model" for r in bundle
                   if r.series != "wait_simulated")

    def test_sls_series_match_identity(self, bundle):
        sls_nat = {r.x: r.value for r in bundle if r.series == "sls_native"}
        boost = {r.x: r.value for r in bundle if r.series == "priority_boost"}
        sls_res = {r.x: r.value for r in bundle if r.series == "sls_resultant"}
        for tp in sls_nat:
            assert sls_nat[tp] == float(tp)
            assert sls_res[tp] == boost[tp]


class TestCompareAnalytic:
    def test_insufficient_samples(self):
        report = run(small_config(num_vms=2), [make_job(job_id=i, arrival=float(i))
                                               for i in range(10)])
        with pytest.raises(InsufficientSamplesError):
            compare_analytic(report, [(0.5, 1.0, 2.0)])

    def test_small_scale_agreement_with_relaxed_floor(self):
        rng = np.random.default_rng(17)
        n = 20_000
        arrivals = np.cumsum(rng.exponential(2.0, n))
        services = rng.exponential(1.0, n)
        jobs = [make_job(job_id=i, arrival=float(arrivals[i]), due=1e9,
                         exec_time=float(services[i]), prep=0.0) for i in range(n)]
        report = run(small_config(arrival_rate=0.5, class_rates=(0.5,)), jobs)
        errors = compare_analytic(report, [(0.5, 1.0, 2.0)], min_samples=n)
        assert errors[0] <= 0.10


# Epoch lengths that binary floats do not hold exactly (0.1, 0.3, 7.7) and
# ones they do.
EPOCH_LENGTHS = (0.1, 0.3, 7.7, 1.0, 60.0)
# Values a job field may take besides its valid ones: non-finite, zeros of
# both signs, negatives, a fraction below the processor minimum and huge
# floats, whose sums overflow.
_ODD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1, -1.5, 0.5,
                               1e308, -1e308])
_POSITIVE = st.sampled_from([1, 2, 5.0, 650, 700.0]) | st.floats(1e-3, 1e4)
_NON_NEGATIVE = st.sampled_from([0, 0.0, -0.0]) | _POSITIVE
_JOB_FIELDS = {"due_time": _POSITIVE, "exec_time": _POSITIVE, "prep_time": _NON_NEGATIVE,
               "processors": st.integers(1, 8), "memory": _POSITIVE,
               "storage": _NON_NEGATIVE, "order_amount": _NON_NEGATIVE,
               "relationship": _NON_NEGATIVE}


def _arrivals(epoch_length):
    """Arrivals on or next to the k-th epoch boundary: k times the decimal
    epoch length (an int when whole), the float product k * epoch_length and
    one float step to either side of it; or anywhere."""
    def near_boundary(k):
        decimal = Fraction(k) * Fraction(str(epoch_length))
        product = k * epoch_length
        return st.sampled_from([int(decimal) if decimal.denominator == 1 else float(decimal),
                                float(decimal), product, math.nextafter(product, math.inf),
                                math.nextafter(product, -math.inf)])

    return st.integers(0, 30).flatmap(near_boundary) | st.floats(0.0, 30 * epoch_length)


@st.composite
def _job_lists(draw, epoch_length, odd_values=_ODD_VALUES):
    """Job lists in which each job has up to two fields (arrival included) set
    to an odd value, so most jobs are valid and the rest fail one check."""
    jobs = []
    for i in range(draw(st.integers(1, 25))):
        values = {"arrival_time": draw(_arrivals(epoch_length))}
        values.update((name, draw(strategy)) for name, strategy in _JOB_FIELDS.items())
        for name in draw(st.lists(st.sampled_from(sorted(values)), max_size=2)):
            values[name] = draw(odd_values)
        jobs.append(Job(i, values["arrival_time"], values["due_time"], values["exec_time"],
                        values["prep_time"],
                        ResourceDemand(values["processors"], values["memory"],
                                       values["storage"]),
                        BusinessProfile(values["order_amount"], values["relationship"])))
    return jobs


def _cases(odd_values=_ODD_VALUES):
    """(epoch_length, jobs) pairs."""
    return st.sampled_from(EPOCH_LENGTHS).flatmap(
        lambda length: st.tuples(st.just(length), _job_lists(length, odd_values)))


def _float_reprs(values) -> list[str]:
    """repr of each value as a float: tells every two floats apart, NaN equal to NaN."""
    return [repr(float(v)) for v in values]


# Python's 77 // 7.7 is 9.0, although 77 / 7.7 rounds to 10.0: job 1 shares
# epoch 9 with job 0, not epoch 10 with job 2.
BOUNDARY_JOBS = [make_job(job_id=0, arrival=70.0), make_job(job_id=1, arrival=77, due=800.0),
                 make_job(job_id=2, arrival=78.0, due=900.0)]
# Jobs 1 and 3 have a NaN processor count, which validate_job and valid_mask
# both reject; job 1 is the first of its epoch.
NAN_WEIGHT_JOBS = [
    make_job(job_id=0, arrival=0.0),
    make_job(job_id=1, arrival=60.0, demand=ResourceDemand(math.nan, 1.5, 100.0)),
    make_job(job_id=2, arrival=61.0),
    make_job(job_id=3, arrival=62.0, demand=ResourceDemand(math.nan, 1.0, 1.0)),
]
# Valid fields whose start slack (job 1) or demand weight (job 2) overflows to
# inf: both validators reject them, so the priority columns never see an
# infinity, and with it the invalid-value warning of inf / inf.
OVERFLOW_JOBS = [make_job(job_id=0), make_job(job_id=1, exec_time=1e308, prep=1e308),
                 make_job(job_id=2, demand=ResourceDemand(1, 1e308, 1e308))]
# Arrivals whose epoch number, arrival // 0.1, overflows to inf: jobs 1 and 2
# share the epoch inf, as they do under Python's //.
HUGE_ARRIVAL_JOBS = [make_job(job_id=0, arrival=0.0), make_job(job_id=1, arrival=1e308),
                     make_job(job_id=2, arrival=1.5e308)]


class TestColumnPass:
    """run()'s column pass against the scalar rules it replaces."""

    @given(case=_cases())
    @example(case=(60.0, NAN_WEIGHT_JOBS))
    @example(case=(60.0, OVERFLOW_JOBS))
    def test_mask_agrees_with_validate_job(self, case):
        _length, jobs = case
        assert valid_mask(JobSet(jobs).columns).tolist() == [
            validate_job(job) is None for job in jobs]

    @given(case=_cases(st.sampled_from([math.nan, math.inf, -math.inf, 0, -0.0, -1])))
    @example(case=(60.0, OVERFLOW_JOBS))
    def test_run_rejects_what_validate_job_rejects_with_its_reason(self, case):
        epoch_length, jobs = case
        catalog = (ResourceCatalogEntry("huge", 8, 1, 1e6, 64, 1e6, 1.0),)
        report = run(small_config(num_vms=len(jobs), epoch_length=epoch_length,
                                  catalog=catalog), jobs)
        reasons = [validate_job(job) for job in jobs]
        assert [r.status == "rejected" for r in report.jobs] == [
            reason is not None for reason in reasons]
        assert report.columns["reason"] == reasons

    @given(case=_cases())
    @example(case=(7.7, BOUNDARY_JOBS))
    @example(case=(60.0, NAN_WEIGHT_JOBS))
    @example(case=(0.1, HUGE_ARRIVAL_JOBS))
    @example(case=(0.1, HUGE_ARRIVAL_JOBS[1:2]))
    @example(case=(0.1, [make_job(due=1.0, exec_time=1e308, prep=1e308)]))
    def test_window_stats_equal_window_stats_from_jobs(self, case):
        epoch_length, jobs = case
        jobs = [job for job in jobs if validate_job(job) is None]
        if not jobs:
            return

        def epoch(job):  # int(arrival // epoch_length), but defined when that is inf
            return job.arrival_time // epoch_length

        batches: dict = {}
        for job in jobs:
            batches.setdefault(epoch(job), []).append(job)
        stats = window_stats_by_epoch(JobSet(jobs).columns, epoch_length)
        for i, job in enumerate(jobs):
            window = WindowStats.from_jobs(batches[epoch(job)])
            assert _float_reprs(stat[i] for stat in stats) == _float_reprs(
                (window.t_start_min, window.t_start_max, window.demand_weight_max))

    @given(entries=st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1.0, 1.7, 2, 8.0]),
                                      st.sampled_from([10, 100.0, 500.0]),
                                      st.sampled_from([0.1, 0.2, 0.4])),
                            min_size=1, max_size=6),
           demands=st.lists(st.builds(
               ResourceDemand, st.sampled_from([math.nan, math.inf, 0, 1, 1.0, 2, 3, 5]),
               st.sampled_from([math.nan, 0.0, -0.0, 1, 1.0, 1.7, 2.0, 9.0]),
               st.sampled_from([math.nan, math.inf, -0.0, 0.0, 0, 10, 10.0, 100, 600.0])),
               min_size=1, max_size=30))
    @example(entries=[(1, 1.7, 100.0, 0.2), (2, 8.0, 500.0, 0.2), (4, 8.0, 500.0, 0.1)],
             demands=[ResourceDemand(1, 1.0, 10), ResourceDemand(2, 2.0, 10.0)])
    def test_fits_equal_cheapest_fit(self, entries, demands):
        catalog = tuple(ResourceCatalogEntry(f"e{i}", cores, 1, ram, 64, disk, cost)
                        for i, (cores, ram, disk, cost) in enumerate(entries))
        jobs = [Job(i, 0.0, 1.0, 1.0, 0.0, demand, BusinessProfile(0.0, 0.0))
                for i, demand in enumerate(demands)]
        job_set = JobSet(jobs)
        fits = simulator._cheapest_fits(catalog, job_set, list(range(len(jobs))),
                                        job_set.columns[4:7])
        # The entry itself: of equal-cost entries, the first listed.
        assert [id(fit) for fit in fits] == [id(cheapest_fit(catalog, job.demand))
                                             for job in jobs]

    def test_every_job_rejected(self):
        jobs = [make_job(job_id=0, exec_time=0.0), make_job(job_id=1, arrival=math.nan)]
        report = run(small_config(), jobs)
        assert [r.status for r in report.jobs] == ["rejected", "rejected"]
        assert report.makespan == 0.0


class TestWindowStats:
    def test_epoch_grouping(self):
        # Jobs 0 and 1 (start slack 45 and 145) share epoch 0; job 2 is alone.
        jobs = [make_job(job_id=0, arrival=10.0), make_job(job_id=1, arrival=59.9, due=800.0),
                make_job(job_id=2, arrival=61.0)]
        t_min, t_max, weight_max = window_stats_by_epoch(JobSet(jobs).columns, 60.0)
        assert t_min.tolist() == [45.0, 45.0, 45.0]
        assert t_max.tolist() == [145.0, 145.0, 45.0]
        assert weight_max.tolist() == [102.5] * 3

    def test_invalid_jobs_excluded(self):
        # Job 1 would start earlier than job 0, so in job 0's window it would
        # pull job 0's urgency, and its score, down from the top.
        jobs = [make_job(job_id=0, arrival=1.0),
                make_job(job_id=1, arrival=2.0, due=700.0, exec_time=690.0, prep=0.0,
                         demand=ResourceDemand(1, 1.5, -1.0))]
        report = run(small_config(), jobs)
        assert report.jobs[1].status == "rejected"
        assert report.jobs[0].tp_score == 100


def _scenario(name):
    """A 300-job scenario, "reference", "mixed" or "saturated", as (config, spec)."""
    cfg = SimConfig(num_tasks=300, seed=7)
    if name == "saturated":
        cfg = replace(cfg, num_vms=60)
    spec = WorkloadSpec.fixed(cfg)
    if name == "mixed":
        spec = replace(spec, due_dist=Distribution("uniform", (660.0, 3600.0)),
                       exec_dist=Distribution("exponential", (650.0,)),
                       prep_dist=Distribution("uniform", (0.0, 10.0)))
    return cfg, spec


def _library_scenario():
    """A library run() over 120 hand-built jobs, as (config, jobs): int-typed
    job fields, string ids, 7.7 s epochs with arrivals on their boundaries
    (computed three ways), a few rejected jobs (prep -1), and two catalog
    entries of equal cost, of which the first listed wins."""
    catalog = (ResourceCatalogEntry("small", 1, 1, 2.0, 64, 100, 0.1),
               ResourceCatalogEntry("tie-a", 2, 4, 8.0, 64, 500, 0.3),
               ResourceCatalogEntry("tie-b", 2, 4, 8.0, 64, 500, 0.3),
               ResourceCatalogEntry("big", 8, 20, 32.0, 64, 2000, 0.9))
    cfg = SimConfig(num_tasks=120, num_vms=5, epoch_length=7.7, catalog=catalog, seed=9,
                    allocation_bands=((1, 30, 1.0), (31, 60, 0.7), (61, 100, 0.4)))
    jobs = []
    for i in range(120):
        k = i // 4
        arrival = (k * 7.7, 77 * k // 10, k * 77 / 10, k)[i % 4]
        demand = (ResourceDemand(1, 2, 50), ResourceDemand(2, 8, 400))[i % 3 == 0]
        jobs.append(Job(id=f"job-{i * 37 % 120}", arrival_time=arrival, due_time=60 + i * 7 % 90,
                        exec_time=5 + i * 11 % 30, prep_time=-1 if i % 17 == 5 else i % 6,
                        demand=demand, business=BusinessProfile(i * 13 % 1000, i % 7)))
    return cfg, jobs



def _scenario_jobs(name):
    """The config and job list of a pinned scenario: a _scenario or "library"."""
    if name == "library":
        return _library_scenario()
    cfg, spec = _scenario(name)
    return cfg, sample_jobs(cfg, spec)


# SHA-256 of SimReport.to_json() per (scenario, mode). A change to any of them
# is a change in report bytes and must be recorded in CHANGES.md.
PINNED_REPORT_SHA256 = {
    ("reference", "native"): "2ca771a8ccd91b5997615b72de8b5d9128400954bb4f7c59e6f03629ac429f77",
    ("reference", "resultant"):
        "d4e0382767e8565bf03e114aea6243dffd0303b2ea38dff5ada2c5cbde10e039",
    ("mixed", "native"): "d66b121ef7549c7da4f8ceb2365577f08ce447f8d7c8e4e5d66cc5df51924dfe",
    ("mixed", "resultant"): "6bd5ad2abfb0738a4f8d9d9ed469886d995e9f4f67119666c9afd8021c27f703",
    ("saturated", "native"): "ec8dda27f168c22018daf2a0969e45861a4b792c7f3d3ff861cf65313d88e7b4",
    ("saturated", "resultant"):
        "32ebd7a9e4b05f200f143a2885a750b2e12b1ec9857727730276e690f77fc2b8",
    ("library", "native"): "aba822e34a0fc19c0a2981da3ab4a9e9395efdc6441c8878731558aa3c7759f7",
    ("library", "resultant"): "9277df1d80267899bb4a3a28cd3e9c93cea04cd028ed261d0d7132f9ce071f49",
}


class TestReportBytes:
    @pytest.mark.parametrize("name,mode", sorted(PINNED_REPORT_SHA256))
    def test_to_json_hash_is_pinned(self, name, mode):
        cfg, jobs = _scenario_jobs(name)
        report = run(cfg, jobs, mode=mode)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == PINNED_REPORT_SHA256[(name, mode)]

    def test_mixed_scenario_reaches_every_band(self):
        cfg, spec = _scenario("mixed")
        jobs = sample_jobs(cfg, spec)
        for mode in ("native", "resultant"):
            assert len(run(cfg, jobs, mode=mode).band_waits) == len(cfg.allocation_bands)

    def test_saturated_scenario_queues(self):
        cfg, spec = _scenario("saturated")
        report = run(cfg, sample_jobs(cfg, spec))
        assert not report.unstable
        assert max(r.wait for r in report.jobs) >= cfg.exec_time


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


# Floats at the edges of the range where orjson and repr write the same
# notation, 1e-4 <= |x| < 1e16, and those orjson writes as null.
_EDGE_FLOATS = (1e-4, 1e-5, 9.999999999999999e15, 1e16, 5e-324, 0.0, -0.0, math.nan,
                math.inf, -math.inf)
# Every kind of value a column may hold: floats, among them those below 1e-4,
# which orjson writes as 0.0000... or with an e, ints past 64 bits, which
# orjson refuses, bools, None, an IntEnum, np.float64, which orjson refuses
# as a float subclass, and strs with a quote and the characters that orjson
# writes raw and the json module escapes.
_COLUMN_VALUES = (st.floats() | st.sampled_from(_EDGE_FLOATS) | st.floats(-1e-4, 1e-4)
                  | st.sampled_from((2**63 - 1, 2**63, 2**64, -2**63, -2**63 - 1, -2**64))
                  | st.integers() | st.booleans() | st.none() | st.sampled_from(tuple(_Level))
                  | st.floats().map(np.float64) | st.text(alphabet='ab"é\x7f,'))


@st.composite
def _columns_of_scalars(draw):
    """A list of a few values of every kind (_COLUMN_VALUES) among ordinary
    floats, as report columns hold them, so that the few tokens that orjson
    writes with an e or as 0.0000... are respelled, not the whole column
    encoded again."""
    column = draw(st.lists(st.floats(1e-4, 1e15), min_size=32, max_size=64))
    for value in draw(st.lists(_COLUMN_VALUES, max_size=4)):
        column.insert(draw(st.integers(0, len(column))), value)
    return column


# Columns whose first and last tokens orjson spells differently from repr,
# with an e (repr's 1e-07 and 1e+16) or with 0.0000 (1e-05 and -1.5e-05).
# Two such tokens in 40 are within _RESPELL_SHARE, so both are respelled.
RESPELLED_COLUMNS = ([1e-7] + [0.5] * 38 + [1e16], [1e-5] + [0.5] * 38 + [-1.5e-5])


class TestColumnText:
    """The report writer's orjson path against the json module's encoder."""

    @settings(max_examples=300, deadline=None)
    @given(column=_columns_of_scalars())
    @example(column=RESPELLED_COLUMNS[0])
    @example(column=RESPELLED_COLUMNS[1])
    @example(column=[0.5, math.nan, None, -math.inf])
    @example(column=[0.5, 'a"b'])
    @example(column=[0.5, "\xe9\x7f"])
    @example(column=[2**64, np.float64(0.5), _Level.HIGH, True])
    def test_column_text_equals_encode(self, column):
        assert simulator._column_text(column) == simulator._encode(column)

    @pytest.mark.parametrize("column", RESPELLED_COLUMNS)
    def test_marked_first_and_last_tokens_are_respelled(self, monkeypatch, column):
        # A respelling that fails falls back to _encode, which gives the same
        # text; so the fallback must not run.
        want = simulator._encode(column)
        encoded = []
        monkeypatch.setattr(simulator, "_encode", lambda value: encoded.append(value))
        assert simulator._column_text(column) == want
        assert encoded == []


def _oracle(seed: int, i: int, d: int) -> float:
    """Draw d of job i by its definition: numpy's Philox Generator from
    counter (i, d // 4)."""
    generator = np.random.Generator(np.random.Philox(key=seed, counter=[i, d // 4, 0, 0]))
    return generator.random(4)[d % 4]


def _count_generators(monkeypatch) -> list:
    """Record every numpy generator, bit generator or seed sequence built from now
    on (workload sampling builds some too)."""
    calls = []
    for name in ("default_rng", "Generator", "PCG64", "SeedSequence", "Philox"):
        def counting(*args, _built=getattr(simulator.np.random, name), _name=name, **kwargs):
            calls.append(_name)
            return _built(*args, **kwargs)

        monkeypatch.setattr(simulator.np.random, name, counting)
    return calls


def _record_draws(monkeypatch) -> list:
    """Record the job place i and the draw u of every allocation attempt that
    draws, as (i, u) in call order; the attempt's draw number is not kept."""
    used = []
    real_draw = simulator._Inputs.draw

    def recording(inputs, i, d):
        u = real_draw(inputs, i, d)
        used.append((i, u))
        return u

    monkeypatch.setattr(simulator._Inputs, "draw", recording)
    return used


def _by_place(used: list) -> dict:
    """(i, d) -> u of one run's recorded draws, for the job at place i of the
    job set and its draw d, the number of its earlier draws."""
    drawn: Counter = Counter()
    draws = {}
    for i, u in used:
        draws[i, drawn[i]] = u
        drawn[i] += 1
    return draws


# A job set whose _Inputs gives the draws of job places 0..63.
DRAW_JOBS = JobSet([make_job(job_id=i) for i in range(64)])
# Two runs of _DRAW_RUN jobs and a run of five.
RUN_JOBS = JobSet([make_job(job_id=i) for i in range(2 * simulator._DRAW_RUN + 5)])


class TestJobStreams:
    def test_certain_bands_build_no_generator(self, monkeypatch):
        cfg, spec = _scenario("mixed")
        cfg = replace(cfg, allocation_bands=ALL_ONE_BANDS)
        jobs = sample_jobs(cfg, spec)
        built = _count_generators(monkeypatch)
        report = run(cfg, jobs)
        assert report.completed == cfg.num_tasks
        assert built == []

    @pytest.mark.parametrize("mode", ["native", "resultant"])
    @pytest.mark.parametrize("name", ["reference", "mixed", "saturated"])
    def test_no_generator_and_equal_to_eager_streams(self, monkeypatch, name, mode):
        cfg, spec = _scenario(name)
        jobs = sample_jobs(cfg, spec)
        built = _count_generators(monkeypatch)
        used = _record_draws(monkeypatch)
        report = run(cfg, jobs, mode=mode)
        drawn = _by_place(used)
        assert set(built) == {"Philox"}  # raw words only, no Generator
        assert sum(r.retries for r in report.jobs) > 0  # some draws failed

        # Every draw through a numpy Generator, the definition.
        blocks = []

        def eager(seed, count, counter=None):
            blocks.append(counter if counter is None else tuple(counter[:2]))
            return np.random.Generator(np.random.Philox(key=seed, counter=counter)).random(count)

        monkeypatch.setattr(simulator, "_uniforms", eager)
        eager_report = run(cfg, sample_jobs(cfg, spec), mode=mode)
        assert eager_report.to_json() == report.to_json()
        # Draws 0..3 of every job come from one call, and a later block of four
        # is built once per run of _DRAW_RUN jobs, when a job of the run
        # reaches it, from the counter of the run's first job.
        assert blocks.count(None) == 1
        run_of = simulator._DRAW_RUN
        assert sorted(blocks[1:]) == sorted({(i - i % run_of, d // 4)
                                             for i, d in drawn if d >= 4})
        # Only the jobs whose band admits with p < 1 draw.
        certain = {r for lo, hi, p in cfg.allocation_bands if p == 1.0 for r in range(lo, hi + 1)}
        assert {i for i, _d in drawn} == {i for i, r in enumerate(report.jobs)
                                          if r.rank not in certain}
        assert 0 < len({i for i, _d in drawn}) < cfg.num_tasks

    @given(seed=st.integers(0, 2**128 - 1), places=st.lists(st.integers(0, 63), min_size=1,
                                                            max_size=4))
    @example(seed=0, places=[0, 1, 63])
    @example(seed=2**64, places=[0, 63])
    @example(seed=2**128 - 1, places=[0, 63])
    def test_streams_equal_numpy_draw_for_draw(self, seed, places):
        # Draws 0..3 come from the array of every job's first four, the
        # later ones from a block per (job, block): both paths are checked.
        inputs = simulator._Inputs(SimConfig(num_tasks=1, seed=seed), DRAW_JOBS)
        for i in places:
            assert [inputs.draw(i, d) for d in range(12)] == [_oracle(seed, i, d)
                                                              for d in range(12)]

    @given(seed=st.integers(0, 2**128 - 1),
           places=st.lists(st.integers(0, len(RUN_JOBS) - 1), min_size=1, max_size=4))
    @example(seed=7, places=[simulator._DRAW_RUN - 1, simulator._DRAW_RUN, len(RUN_JOBS) - 1])
    def test_later_blocks_of_each_run_of_jobs_equal_numpy(self, seed, places):
        # Three runs of jobs, the last one short: a job's later draws come
        # from its run's blocks, at its place in the run.
        inputs = simulator._Inputs(SimConfig(num_tasks=1, seed=seed), RUN_JOBS)
        for i in places:
            assert [inputs.draw(i, d) for d in range(4, 13)] == [_oracle(seed, i, d)
                                                                 for d in range(4, 13)]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1))
    @example(seed=7)
    def test_paired_runs_use_common_random_numbers(self, seed):
        # Native and resultant runs of one job set: a job's draw d is the
        # same number in both runs whenever both make it, and it is u(seed, i, d)
        # for the job's place i in the set, here the reverse of its id order.
        cfg, spec = _scenario("mixed")
        cfg = replace(cfg, num_tasks=80, num_vms=4, seed=seed,
                      allocation_bands=((1, 40, 0.8), (41, 100, 0.3)))
        jobs = sample_jobs(cfg, spec)[::-1]
        runs = []
        for mode in ("native", "resultant"):
            with pytest.MonkeyPatch.context() as monkeypatch:
                used = _record_draws(monkeypatch)
                run(cfg, jobs, mode=mode)
            runs.append(_by_place(used))
        native, resultant = runs
        common = native.keys() & resultant.keys()
        assert any(d >= 4 for _i, d in common)
        for i, d in common:
            assert native[i, d] == resultant[i, d]
        for (i, d), u in {**native, **resultant}.items():
            assert u == _oracle(seed, i, d)


# Values whose left-to-right float sum (0.0) differs from a compensated one
# (2.0, what sum() gives from Python 3.12 on).
UNCOMPENSATED = [0.1] * 10 + [1e16, 1.0, -1e16]


def _columns(n: int, **values) -> dict:
    """Report columns of n job records: every field None except those given."""
    columns = {name: [None] * n for name in simulator._RECORD_FIELDS}
    columns.update(values)
    return columns


class TestLeftToRightSums:
    def test_summary_adds_left_to_right(self):
        assert math.fsum(UNCOMPENSATED) == 2.0  # the values tell the two sums apart
        n = len(UNCOMPENSATED)
        columns = _columns(n, status=["completed"] * n, wait=UNCOMPENSATED, rank=[5] * n,
                           class_index=[1] * n, resultant=UNCOMPENSATED, deadline_met=[True] * n,
                           cost=UNCOMPENSATED)
        bands, band_of_rank = ((1, 10, 1.0), (11, 100, 0.5)), [None] + [0] * 10 + [1] * 90
        band_waits, class_sls, hit_rate, total_cost = simulator._summary(columns, bands,
                                                                         band_of_rank, 2)
        assert band_waits == {"1-10": 0.0}
        assert class_sls == {"1": 0.0}
        assert (hit_rate, total_cost) == (1.0, 0.0)

    def test_compare_analytic_adds_left_to_right(self):
        n = len(UNCOMPENSATED)
        report = SimReport(mode="native", seed=1, columns=_columns(
            n, status=["completed"] * n, class_index=[1] * n, wait=UNCOMPENSATED))
        assert compare_analytic(report, [(0.5, 1.0, 2.0)], min_samples=n) == [1.0]
