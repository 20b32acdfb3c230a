import itertools

import pytest
from hypothesis import given, strategies as st

from cloudsched.domain import BusinessProfile, Job, ResourceDemand, SimConfig
from cloudsched.priority import (
    EmptyWindowError,
    WindowStats,
    build_record,
    business_priority,
    compute_start_time,
    demand_weight,
    resultant_priority,
    score_to_rank,
    service_level_satisfaction,
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
        assert rec.chain is None

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
