import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cloudsched.domain import BusinessProfile, Job, JobSet, ResourceDemand, SimConfig
from cloudsched.priority import (
    EmptyWindowError,
    WindowStats,
    build_record,
    business_priority,
    compute_start_time,
    demand_weight,
    resultant_columns,
    resultant_priority,
    score_to_rank,
    service_level_satisfaction,
    technical_columns,
    technical_priority,
)

CFG = SimConfig()


def timed_job(due, exec_time, prep, weight_demand=None, arrival=0.0):
    return Job(id=0, arrival_time=arrival, due_time=due, exec_time=exec_time,
               prep_time=prep, demand=weight_demand or ResourceDemand(1, 1.0, 10.0),
               business=BusinessProfile(0.0, 0.0))


def job_with_start(t_start, demand=None):
    # due = t_start + exec + prep makes compute_start_time return t_start exactly
    return timed_job(t_start + 11.0, 10.0, 1.0, weight_demand=demand)


class TestStartTime:
    def test_reference_values(self):
        assert compute_start_time(timed_job(700, 650, 5), 0.0) == 45.0

    def test_zero_slack(self):
        assert compute_start_time(timed_job(700, 700, 0), 0.0) == 0.0

    def test_blank_time_can_push_negative(self):
        assert compute_start_time(timed_job(700, 650, 5), 60.0) == -15.0


class TestDemandWeight:
    def test_large_shape(self):
        assert demand_weight(ResourceDemand(2, 7.5, 850.0)) == 859.5

    def test_small_shape(self):
        assert demand_weight(ResourceDemand(1, 1.7, 160.0)) == 162.7

    def test_near_minimal(self):
        assert demand_weight(ResourceDemand(1, 0.001, 0.0)) == 1.001


class TestTechnicalPriority:
    def test_single_job_window_saturates(self):
        job = timed_job(700, 650, 5)
        window = WindowStats.from_jobs([job])
        assert technical_priority(job, window, CFG) == 100

    def test_two_jobs_equal_demand(self):
        # hand evaluation: earliest has urgency 1, latest 0; demand term is 1
        # for both, so scores are 100*(0.7*1 + 0.3*1) and 100*(0.7*0 + 0.3*1)
        early = job_with_start(10.0)
        late = job_with_start(50.0)
        window = WindowStats.from_jobs([early, late])
        assert technical_priority(early, window, CFG) == 100
        assert technical_priority(late, window, CFG) == 30

    def test_five_jobs_antitone_in_start(self):
        starts = [3.0, 8.0, 21.0, 34.0, 55.0]
        batch = [job_with_start(s) for s in starts]
        window = WindowStats.from_jobs(batch)
        scores = [technical_priority(j, window, CFG) for j in batch]
        assert scores == sorted(scores, reverse=True)
        # brute force: every earlier-starting job scores at least as high
        for a, b in itertools.combinations(range(len(batch)), 2):
            assert scores[a] >= scores[b]

    def test_empty_window_is_an_error(self):
        with pytest.raises(EmptyWindowError):
            WindowStats.from_jobs([])

    @given(starts=st.lists(st.floats(-100.0, 1000.0), min_size=2, max_size=20))
    def test_monotone_in_start_for_fixed_window(self, starts):
        batch = [job_with_start(s) for s in starts]
        window = WindowStats.from_jobs(batch)
        ordered = sorted(batch, key=lambda j: compute_start_time(j))
        scores = [technical_priority(j, window, CFG) for j in ordered]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    @given(weights=st.lists(st.floats(1.1, 5000.0), min_size=2, max_size=20))
    def test_monotone_in_demand_for_fixed_window(self, weights):
        batch = [job_with_start(10.0, demand=ResourceDemand(1, 0.1, w)) for w in weights]
        window = WindowStats.from_jobs(batch)
        ordered = sorted(batch, key=lambda j: demand_weight(j.demand))
        scores = [technical_priority(j, window, CFG) for j in ordered]
        assert all(a <= b for a, b in zip(scores, scores[1:]))


class TestBusinessPriority:
    def test_order_only(self):
        cfg = SimConfig(order_norm=1.0, relationship_norm=0.0)
        assert business_priority(BusinessProfile(7.0, 123.0), cfg) == 7.0

    def test_zero_normalizers(self):
        cfg = SimConfig(order_norm=0.0, relationship_norm=0.0)
        assert business_priority(BusinessProfile(100.0, 100.0), cfg) == 0.0

    def test_cap_binds(self):
        cfg = SimConfig(order_norm=0.5, relationship_norm=0.5)
        assert business_priority(BusinessProfile(100.0, 100.0), cfg) == 10.0

    @given(order=st.floats(0.0, 1e7), rel=st.floats(0.0, 1e7),
           cap=st.floats(0.0, 50.0))
    def test_always_within_cap(self, order, rel, cap):
        cfg = SimConfig(order_norm=0.01, relationship_norm=0.02,
                                   business_cap=cap)
        boost = business_priority(BusinessProfile(order, rel), cfg)
        assert 0.0 <= boost <= cap


class TestResultantPriority:
    @pytest.mark.parametrize("tp,expected", [
        (80, 90), (78, 88), (76, 86), (74, 84), (72, 82), (70, 80),
        (60, 60), (58, 58),
    ])
    def test_boost_fixture(self, tp, expected):
        assert resultant_priority(tp, 10.0, CFG) == expected

    def test_cap_at_100(self):
        assert resultant_priority(95, 10.0, CFG) == 100.0

    def test_zero_boost_is_identity(self):
        for tp in range(0, 101, 7):
            assert resultant_priority(tp, 0.0, CFG) == tp

    @given(tp=st.integers(0, 100), bp=st.floats(0.0, 10.0))
    def test_never_below_native(self, tp, bp):
        assert resultant_priority(tp, bp, CFG) >= tp

    @given(bp=st.floats(0.0, 10.0))
    def test_monotone_in_native_score(self, bp):
        values = [resultant_priority(tp, bp, CFG) for tp in range(0, 101)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestServiceLevelSatisfaction:
    @pytest.mark.parametrize("score", [90, 80, 0])
    def test_identity(self, score):
        assert service_level_satisfaction(score) == score

    def test_domain_check(self):
        with pytest.raises(ValueError):
            service_level_satisfaction(101)


class TestScoreToRank:
    def test_best_score_best_rank(self):
        assert score_to_rank(100) == 1

    def test_worst_score_worst_rank(self):
        assert score_to_rank(0) == 100

    def test_interior_value(self):
        assert score_to_rank(41) == 60

    def test_domain_check(self):
        with pytest.raises(ValueError):
            score_to_rank(-1)
        with pytest.raises(ValueError):
            score_to_rank(100.5)

    @given(a=st.floats(0.0, 100.0), b=st.floats(0.0, 100.0))
    def test_antitone(self, a, b):
        if a > b:
            assert score_to_rank(a) <= score_to_rank(b)


class TestBuildRecord:
    def test_rank_is_derived_from_resultant(self):
        job = timed_job(700, 650, 5)
        job = Job(id=job.id, arrival_time=0.0, due_time=700.0, exec_time=650.0,
                  prep_time=5.0, demand=job.demand,
                  business=BusinessProfile(1000.0, 0.0))
        window = WindowStats.from_jobs([job])
        rec = build_record(job, window, CFG)
        assert rec.tp_score == 100
        assert rec.bp_score == 10.0
        assert rec.resultant == 100.0  # capped
        assert rec.rank == score_to_rank(rec.resultant)

    def test_native_mode_ignores_boost(self):
        job = Job(id=0, arrival_time=0.0, due_time=700.0, exec_time=650.0,
                  prep_time=5.0, demand=ResourceDemand(1, 1.0, 10.0),
                  business=BusinessProfile(1000.0, 0.0))
        window = WindowStats.from_jobs([job])
        rec = build_record(job, window, CFG, apply_business=False)
        assert rec.resultant == float(rec.tp_score)
        assert rec.bp_score == 10.0  # still recorded

    def test_resultant_at_least_native(self):
        starts = [5.0, 10.0, 40.0, 90.0]
        batch = [job_with_start(s) for s in starts]
        window = WindowStats.from_jobs(batch)
        for job in batch:
            rec = build_record(job, window, CFG)
            assert rec.resultant >= rec.tp_score


def _window_of_each(jobs, cfg):
    """Each job's WindowStats.from_jobs over the jobs of its arrival epoch."""
    def epoch(job):
        return int(job.arrival_time // cfg.epoch_length)

    windows = {e: WindowStats.from_jobs(list(batch), cfg.blank_time)
               for e, batch in itertools.groupby(sorted(jobs, key=epoch), key=epoch)}
    return [windows[epoch(j)] for j in jobs]


def _window_arrays(windows):
    """The (t_start_min, t_start_max, demand_weight_max) arrays of WindowStats."""
    return [np.array([getattr(w, name) for w in windows])
            for name in ("t_start_min", "t_start_max", "demand_weight_max")]


def _record_columns(columns, windows, cfg, apply_business=True):
    """build_record's six priority fields as lists: technical_columns, then
    resultant_columns of its scores, as run() computes them."""
    t_start, weight, tp, bp = technical_columns(columns, windows, cfg)
    return (t_start, weight, tp, bp, *resultant_columns(tp, bp, cfg, apply_business))


def _exact(values):
    """Type and repr of each value: repr tells every two floats apart, -0.0 included."""
    return [(type(v), repr(v)) for v in values]


def _priority_job(job_id, epoch, offset, due, exec_time, prep, demand, order, rel):
    return Job(id=job_id, arrival_time=epoch * 60.0 + offset, due_time=due,
               exec_time=exec_time, prep_time=prep, demand=demand,
               business=BusinessProfile(order, rel))


def _priority_cfg(beta=60.0, w_urgency=0.7, order_norm=0.01, relationship_norm=0.0,
                  business_cap=10.0, blank_time=0.0):
    return SimConfig(beta=beta, w_urgency=w_urgency, w_demand=1.0 - w_urgency,
                     order_norm=order_norm, relationship_norm=relationship_norm,
                     business_cap=business_cap, blank_time=blank_time)


SMALL = ResourceDemand(1, 1.0, 10.0)
# Epoch 0: two jobs with zero spread (tied t_start 45). Epoch 1: one job.
# Epoch 2: tied t_start 45 at jobs 3 and 4; job 5 scores tp 30 and, with a
# boost of 0.5 (50 * 0.01), resultant 30.5, a rank half-step (101 - 30.5).
# Epoch 3: job 6 has urgency 1 and demand 25 of 100, so equal weights score
# it 100 * (0.5 + 0.125) = 62.5, a tp half-step.
CORNER_JOBS = [
    _priority_job(0, 0, 1.0, 700.0, 650.0, 5.0, SMALL, 0.0, 0.0),
    _priority_job(1, 0, 2.0, 700.0, 650.0, 5.0, SMALL, 1000.0, 0.0),
    _priority_job(2, 1, 0.0, 700.0, 650.0, 5.0, SMALL, 50.0, 0.0),
    _priority_job(3, 2, 0.0, 700.0, 650.0, 5.0, SMALL, 0.0, 0.0),
    _priority_job(4, 2, 3.0, 700.0, 650.0, 5.0, SMALL, 50.0, 10.0),
    _priority_job(5, 2, 5.0, 900.0, 650.0, 5.0, SMALL, 50.0, 0.0),
    _priority_job(6, 3, 0.0, 700.0, 650.0, 5.0, ResourceDemand(1, 4.0, 20.0), 0.0, 0.0),
    _priority_job(7, 3, 1.0, 900.0, 650.0, 5.0, ResourceDemand(1, 9.0, 90.0), 0.0, 0.0),
]
# One epoch whose finite start slacks, about 1.7e308 and -1.7e308, have a
# spread that overflows to inf.
SPREAD_OVERFLOW_JOBS = [
    _priority_job(0, 0, 0.0, 1.7e308, 1.0, 5.0, SMALL, 0.0, 0.0),
    _priority_job(1, 0, 1.0, 1.0, 1.7e308, 5.0, SMALL, 50.0, 0.0),
    _priority_job(2, 0, 2.0, 700.0, 650.0, 5.0, SMALL, 0.0, 0.0),
]
CORNER_CFGS = {
    "half_step": _priority_cfg(beta=20.0),
    "tp_half_step": _priority_cfg(w_urgency=0.5),
    "tp_equals_beta": _priority_cfg(beta=30.0),
    "cap_zero": _priority_cfg(business_cap=0.0),
    "negative_norms": _priority_cfg(order_norm=-0.01, relationship_norm=-0.02),
}

_job = st.builds(
    _priority_job, st.just(0), st.integers(0, 3), st.floats(0.0, 59.9),
    st.sampled_from([700.0, 900.0, 50.0]) | st.floats(1.0, 5000.0),
    st.sampled_from([650.0, 10.0]) | st.floats(0.5, 1000.0),
    st.sampled_from([0.0, 5.0]) | st.floats(0.0, 100.0),
    st.builds(ResourceDemand, st.integers(1, 8),
              st.sampled_from([1.0, 7.5]) | st.floats(0.01, 64.0),
              st.sampled_from([0.0, 10.0, 160.0]) | st.floats(0.0, 2000.0)),
    st.sampled_from([0.0, 50.0, 1000.0]) | st.floats(0.0, 1e4),
    st.sampled_from([0.0, 10.0]) | st.floats(0.0, 100.0))
_cfg = st.builds(
    _priority_cfg,
    beta=st.integers(0, 100).map(float) | st.floats(0.0, 100.0),
    w_urgency=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
    order_norm=st.sampled_from([0.0, -0.0, 0.01, -0.01]) | st.floats(-1.0, 1.0),
    relationship_norm=st.sampled_from([0.0, -0.0, 0.02, -0.02]) | st.floats(-1.0, 1.0),
    business_cap=st.sampled_from([0.0, 0.5, 10.0]) | st.floats(0.0, 100.0),
    blank_time=st.sampled_from([0.0, 5.0]) | st.floats(0.0, 100.0))


def _with_ids(jobs):
    return [Job(i, j.arrival_time, j.due_time, j.exec_time, j.prep_time, j.demand,
                j.business) for i, j in enumerate(jobs)]


class TestPriorityColumns:
    """technical_columns and resultant_columns are the batch form of
    build_record, equal bit for bit."""

    @given(jobs=st.lists(_job, min_size=1, max_size=30).map(_with_ids), cfg=_cfg,
           apply_business=st.booleans())
    @example(jobs=CORNER_JOBS, cfg=CORNER_CFGS["half_step"], apply_business=True)
    @example(jobs=CORNER_JOBS, cfg=CORNER_CFGS["tp_equals_beta"], apply_business=True)
    @example(jobs=CORNER_JOBS, cfg=CORNER_CFGS["cap_zero"], apply_business=True)
    @example(jobs=CORNER_JOBS, cfg=CORNER_CFGS["negative_norms"], apply_business=True)
    @example(jobs=CORNER_JOBS, cfg=CORNER_CFGS["half_step"], apply_business=False)
    @example(jobs=CORNER_JOBS, cfg=CORNER_CFGS["tp_half_step"], apply_business=False)
    @example(jobs=SPREAD_OVERFLOW_JOBS, cfg=CORNER_CFGS["half_step"], apply_business=True)
    def test_columns_equal_build_record(self, jobs, cfg, apply_business):
        windows = _window_of_each(jobs, cfg)
        columns = _record_columns(JobSet(jobs).columns, _window_arrays(windows), cfg,
                                  apply_business=apply_business)
        for i, (job, window) in enumerate(zip(jobs, windows)):
            rec = build_record(job, window, cfg, apply_business=apply_business)
            expected = (rec.t_start, rec.demand_weight, rec.tp_score, rec.bp_score,
                        rec.resultant, rec.rank)
            assert _exact(col[i] for col in columns) == _exact(expected)

    def test_corner_examples_reach_their_corners(self):
        def columns(name):
            cfg = CORNER_CFGS[name]
            return _record_columns(JobSet(CORNER_JOBS).columns,
                                   _window_arrays(_window_of_each(CORNER_JOBS, cfg)), cfg)

        t_start, _w, tp, bp, resultant, rank = columns("half_step")
        windows = _window_of_each(CORNER_JOBS, CORNER_CFGS["half_step"])
        assert windows[0].t_start_min == windows[0].t_start_max  # zero spread
        assert windows[2].count == 1
        assert t_start[3] == t_start[4] and windows[3].t_start_max > t_start[3]
        assert (tp[5], bp[5], resultant[5], rank[5]) == (30, 0.5, 30.5, 70)  # half to even
        assert columns("tp_half_step")[2][6] == 62  # 62.5 half to even
        _t, _w, tp, _bp, resultant, _r = columns("tp_equals_beta")
        assert (tp[5], resultant[5]) == (30, 30.0)  # not boosted at tp == beta
        _t, _w, _tp, bp, _res, _r = columns("cap_zero")
        assert set(bp) == {0.0}
        _t, _w, _tp, bp, _res, _r = columns("negative_norms")
        assert repr(bp[0]) == "-0.0" and repr(bp[1]) == "0.0"
