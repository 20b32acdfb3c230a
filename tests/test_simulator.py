import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from cloudsched import simulator
from cloudsched.domain import BusinessProfile, Job, ResourceDemand, SimConfig
from cloudsched.queueing import AllocationTable
from cloudsched.simulator import (
    ARRIVAL,
    COMPLETION,
    RETRY_ALLOCATION,
    InsufficientSamplesError,
    SimReport,
    _event_key,
    compare_analytic,
    deadline_qos,
    replication_bundle,
    run,
    waiting_time_model,
    window_stats_by_epoch,
)
from cloudsched.workload import Distribution, generate_arrivals, sample_jobs, spec_from_sim

ALL_ONE_BANDS = tuple((lo, lo + 9, 1.0) for lo in range(1, 100, 10))


def make_job(job_id=0, arrival=0.0, due=700.0, exec_time=650.0, prep=5.0,
             demand=None, business=None):
    return Job(id=job_id, arrival_time=arrival, due_time=due, exec_time=exec_time,
               prep_time=prep, demand=demand or ResourceDemand(1, 1.5, 100.0),
               business=business or BusinessProfile(0.0, 0.0))


def small_config(**kwargs):
    defaults = dict(num_tasks=1, num_vms=1, arrival_rate=1.0, class_rates=(1.0,),
                    allocation_bands=ALL_ONE_BANDS, seed=3)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestEventOrdering:
    def test_kind_precedence_at_equal_time(self):
        kinds = [RETRY_ALLOCATION, ARRIVAL, COMPLETION]
        ordered = sorted(kinds, key=lambda k: _event_key(5.0, k, 0))
        assert ordered == [COMPLETION, ARRIVAL, RETRY_ALLOCATION]

    def test_time_dominates_kind(self):
        assert _event_key(1.0, RETRY_ALLOCATION, 0) < _event_key(2.0, COMPLETION, 0)

    def test_job_id_breaks_remaining_ties(self):
        assert _event_key(1.0, ARRIVAL, 1) < _event_key(1.0, ARRIVAL, 2)


class TestSingleJob:
    def test_uncontended_job_waits_zero_and_meets_deadline(self):
        report = run(small_config(), [make_job()])
        rec = report.jobs[0]
        assert rec.status == "completed"
        assert rec.wait == 0.0
        assert rec.deadline_met is True
        assert deadline_qos(rec) == "Good"
        assert report.completed == 1

    def test_t_start_slack_recorded(self):
        report = run(small_config(), [make_job()])
        assert report.jobs[0].t_start == 45.0


class TestCapacitySerialization:
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


class TestDeadlineQos:
    def test_ahead_of_deadline_is_good(self):
        report = run(small_config(), [make_job(due=700.0, exec_time=690.0, prep=0.0)])
        assert deadline_qos(report.jobs[0]) == "Good"

    def test_boundary_is_good(self):
        report = run(small_config(), [make_job(due=700.0, exec_time=700.0, prep=0.0)])
        rec = report.jobs[0]
        assert rec.completion == rec.arrival + 700.0
        assert deadline_qos(rec) == "Good"

    def test_past_deadline_is_poor(self):
        report = run(small_config(), [make_job(due=700.0, exec_time=701.0, prep=0.0)])
        assert deadline_qos(report.jobs[0]) == "Poor"
        assert report.jobs[0].deadline_met is False

    def test_uncompleted_record_is_an_error(self):
        report = run(small_config(max_retries=1,
                                  allocation_bands=((1, 100, 0.01),)),
                     [make_job()])
        stuck = report.jobs[0]
        assert stuck.status == "stuck"
        with pytest.raises(ValueError):
            deadline_qos(stuck)


class TestRunContract:
    def test_empty_job_list_rejected(self):
        with pytest.raises(ValueError):
            run(small_config(), [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run(small_config(), [make_job()], mode="hybrid")

    def test_invalid_jobs_are_rejected_not_simulated(self):
        jobs = [make_job(job_id=0), make_job(job_id=1, exec_time=0.0)]
        report = run(small_config(), jobs)
        statuses = {r.job_id: r.status for r in report.jobs}
        assert statuses[0] == "completed"
        assert statuses[1] == "rejected"
        assert report.rejected == 1
        assert report.jobs[1].reason == "exec_time must be > 0"

    def test_conservation(self):
        cfg = small_config(num_vms=3)
        jobs = [make_job(job_id=i, arrival=float(i) * 0.1) for i in range(50)]
        jobs.append(make_job(job_id=99, exec_time=0.0))
        report = run(cfg, jobs)
        assert report.completed + report.rejected + report.stuck == len(jobs)

    def test_causality(self):
        spec = spec_from_sim(SimConfig(num_tasks=300, seed=11))
        jobs = sample_jobs(spec, generate_arrivals(spec))
        report = run(SimConfig(num_tasks=300, seed=11), jobs)
        for rec in report.jobs:
            if rec.status != "completed":
                continue
            assert rec.arrival == rec.ack
            assert rec.ack <= rec.allocation <= rec.start <= rec.completion

    def test_determinism_byte_identical(self):
        cfg = SimConfig(num_tasks=400, seed=21)
        spec = spec_from_sim(cfg)
        jobs = sample_jobs(spec, generate_arrivals(spec))
        a = run(cfg, jobs)
        b = run(cfg, jobs)
        assert a.to_json() == b.to_json()

    def test_utilization_bounded(self):
        cfg = SimConfig(num_tasks=500, seed=2)
        spec = spec_from_sim(cfg)
        jobs = sample_jobs(spec, generate_arrivals(spec))
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

    def test_report_round_trip(self):
        cfg = small_config(num_vms=2)
        jobs = [make_job(job_id=i, arrival=float(i)) for i in range(5)]
        report = run(cfg, jobs)
        again = SimReport.from_dict(json.loads(report.to_json()))
        assert again == report


class TestPairedModes:
    def test_boosted_jobs_never_lose_rank(self):
        cfg = SimConfig(num_tasks=300, seed=13)
        spec = spec_from_sim(cfg)
        jobs = sample_jobs(spec, generate_arrivals(spec))
        native = run(cfg, jobs, mode="native")
        resultant = run(cfg, jobs, mode="resultant")
        nat = {r.job_id: r for r in native.jobs}
        for rec in resultant.jobs:
            if rec.tp_score is not None and rec.tp_score > cfg.beta and rec.bp_score > 0:
                assert rec.rank <= nat[rec.job_id].rank
                assert rec.resultant >= nat[rec.job_id].resultant

    def test_modes_share_technical_scores(self):
        cfg = SimConfig(num_tasks=200, seed=14)
        spec = spec_from_sim(cfg)
        jobs = sample_jobs(spec, generate_arrivals(spec))
        native = run(cfg, jobs, mode="native")
        resultant = run(cfg, jobs, mode="resultant")
        for a, b in zip(native.jobs, resultant.jobs):
            assert a.tp_score == b.tp_score
            assert a.bp_score == b.bp_score


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
    return replication_bundle(cfg)


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


class TestWindowStats:
    def test_epoch_grouping(self):
        jobs = [make_job(job_id=0, arrival=10.0), make_job(job_id=1, arrival=59.9),
                make_job(job_id=2, arrival=61.0)]
        windows = window_stats_by_epoch(jobs, 60.0)
        assert set(windows) == {0, 1}
        assert windows[0].count == 2
        assert windows[1].count == 1

    def test_invalid_jobs_excluded(self):
        jobs = [make_job(job_id=0, arrival=1.0),
                make_job(job_id=1, arrival=2.0, exec_time=0.0)]
        windows = window_stats_by_epoch(jobs, 60.0)
        assert windows[0].count == 1


def _scenario(name):
    """A 300-job scenario, "reference", "mixed" or "saturated", as (config, spec)."""
    cfg = SimConfig(num_tasks=300, seed=7)
    if name == "saturated":
        cfg = replace(cfg, num_vms=60)
    spec = spec_from_sim(cfg)
    if name == "mixed":
        spec = replace(spec, due_dist=Distribution("uniform", (660.0, 3600.0)),
                       exec_dist=Distribution("exponential", (650.0,)),
                       prep_dist=Distribution("uniform", (0.0, 10.0)))
    return cfg, spec


# SHA-256 of SimReport.to_json() per (scenario, mode). A change to any of them
# is a change in report bytes and must be recorded in CHANGES.md.
PINNED_REPORT_SHA256 = {
    ("reference", "native"): "d0ff9ce94ca8c22c06f834f9c6776b9ebf2bbf3bbdc852695469036c90d5c120",
    ("reference", "resultant"):
        "54b8b87033e8515db46674573446c4d91b42e0f12f1f2bf51072cc99ca7bc0a6",
    ("mixed", "native"): "f8d87a2002913817c3c82ef5f3468f95c38730690936bcb926bc25a2556e3ca7",
    ("mixed", "resultant"): "74d73461228d2eca1a012bb12ba95e5e66257f40e33b08a8ddf33173771d8a0e",
    ("saturated", "native"): "2679eda13a63cd40f773b1769856e04f0cd292b48a62d6064b4cecaa6a44e547",
    ("saturated", "resultant"):
        "c27bf0305dbddb52a181e9e723dd07b370f35d70983d5ba6c30dbf403fcaa522",
}


class TestReportBytes:
    @pytest.mark.parametrize("name,mode", sorted(PINNED_REPORT_SHA256))
    def test_to_json_hash_is_pinned(self, name, mode):
        cfg, spec = _scenario(name)
        report = run(cfg, sample_jobs(spec, generate_arrivals(spec)), mode=mode)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == PINNED_REPORT_SHA256[(name, mode)]

    def test_mixed_scenario_reaches_every_band(self):
        cfg, spec = _scenario("mixed")
        jobs = sample_jobs(spec, generate_arrivals(spec))
        for mode in ("native", "resultant"):
            assert len(run(cfg, jobs, mode=mode).band_waits) == len(cfg.allocation_bands)

    def test_saturated_scenario_queues(self):
        cfg, spec = _scenario("saturated")
        report = run(cfg, sample_jobs(spec, generate_arrivals(spec)))
        assert not report.unstable
        assert max(r.wait for r in report.jobs) >= cfg.exec_time


class EagerStream:
    """A job stream that builds its generator up front: the reference for lazy streams."""

    def __init__(self, seed, index):
        self._rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))

    def random(self):
        return self._rng.random()


def _count_generators(monkeypatch) -> list:
    """Record every generator built from now on (workload sampling builds some too)."""
    calls = []
    default_rng = simulator.np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(simulator.np.random, "default_rng", counting)
    return calls


class TestJobStreams:
    def test_certain_bands_build_no_generator(self, monkeypatch):
        cfg, spec = _scenario("mixed")
        cfg = replace(cfg, allocation_bands=ALL_ONE_BANDS)
        jobs = sample_jobs(spec, generate_arrivals(spec))
        built = _count_generators(monkeypatch)
        report = run(cfg, jobs)
        assert report.completed == cfg.num_tasks
        assert built == []

    @pytest.mark.parametrize("mode", ["native", "resultant"])
    def test_one_generator_per_drawing_job(self, monkeypatch, mode):
        cfg, spec = _scenario("mixed")
        jobs = sample_jobs(spec, generate_arrivals(spec))
        built = _count_generators(monkeypatch)
        report = run(cfg, jobs, mode=mode)
        table = AllocationTable(cfg.allocation_bands)
        # run() only attempts allocation on a free pool, so every attempt at a
        # band probability below 1 draws; every job here is attempted.
        drawing = sum(1 for r in report.jobs if table.probability(r.rank) < 1.0)
        assert 0 < drawing < len(jobs)
        assert len(built) == drawing

        monkeypatch.setattr(simulator, "_JobStream", EagerStream)
        eager = run(cfg, jobs, mode=mode)
        assert len(built) == drawing + len(jobs)
        assert eager.jobs == report.jobs
        assert eager.to_json() == report.to_json()
