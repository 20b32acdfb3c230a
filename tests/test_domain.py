import json
import math
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cloudsched import cli
from cloudsched.domain import (
    DEFAULT_ALLOCATION_BANDS,
    BusinessProfile,
    FieldError,
    Job,
    JobSet,
    ResourceCatalogEntry,
    ResourceDemand,
    SimConfig,
    default_catalog,
    jsonable,
    valid_mask,
    validate_job,
)
from cloudsched.priority import WindowStats, build_record
from cloudsched.simulator import JobRecord, run
from cloudsched.workload import JOB_FILE_FIELDS, job_rows, load_jobs


def make_job(due=700.0, exec_time=650.0, prep=5.0, demand=None, business=None,
             job_id=0, arrival=0.0):
    return Job(
        id=job_id,
        arrival_time=arrival,
        due_time=due,
        exec_time=exec_time,
        prep_time=prep,
        demand=demand or ResourceDemand(1, 1.7, 160.0),
        business=business or BusinessProfile(100.0, 10.0),
    )


class TestValidateJob:
    def test_reference_timing_is_ok(self):
        assert validate_job(make_job(700, 650, 5)) is None

    def test_work_exceeding_due_is_admitted(self):
        # The job cannot meet its due time, which the run reports; it is not rejected.
        assert validate_job(make_job(100, 100, 5)) is None

    def test_zero_exec_is_invalid(self):
        assert validate_job(make_job(exec_time=0)) == "exec_time must be > 0"

    def test_boundary_exact_fit_is_ok(self):
        assert validate_job(make_job(700, 695, 5)) is None

    @pytest.mark.parametrize("field,value,reason", [
        ("due", 0, "due_time must be > 0"),
        ("prep", -1, "prep_time must be >= 0"),
    ])
    def test_timing_invariants(self, field, value, reason):
        kwargs = {"due": value} if field == "due" else {"prep": value}
        assert validate_job(make_job(**kwargs)) == reason

    def test_demand_invariants(self):
        bad = make_job(demand=ResourceDemand(0, 1.0, 0.0))
        assert validate_job(bad) == "processors must be >= 1"
        bad = make_job(demand=ResourceDemand(1, 0.0, 0.0))
        assert validate_job(bad) == "memory must be > 0"
        bad = make_job(demand=ResourceDemand(1, 1.0, -1.0))
        assert validate_job(bad) == "storage must be >= 0"

    def test_business_invariants(self):
        bad = make_job(business=BusinessProfile(-1.0, 0.0))
        assert validate_job(bad) == "order_amount must be >= 0"
        bad = make_job(business=BusinessProfile(0.0, -0.5))
        assert validate_job(bad) == "relationship must be >= 0"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "arrival_time", "due_time", "exec_time", "prep_time", "memory", "storage",
        "order_amount", "relationship", "processors"])
    def test_non_finite_float_is_invalid(self, field, value):
        job = make_job()
        if field in ("processors", "memory", "storage"):
            job = replace(job, demand=replace(job.demand, **{field: value}))
        elif field in ("order_amount", "relationship"):
            job = replace(job, business=replace(job.business, **{field: value}))
        else:
            job = replace(job, **{field: value})
        assert validate_job(job) == f"{field} must be finite"

    @pytest.mark.parametrize("job,reason", [
        (make_job(exec_time=1e308, prep=1e308),
         "start slack (due_time - exec_time - prep_time) must be finite"),
        (make_job(demand=ResourceDemand(1, 1e308, 1e308)),
         "demand weight (processors + memory + storage) must be finite"),
    ])
    def test_overflowing_slack_or_weight_is_invalid(self, job, reason):
        assert validate_job(job) == reason
        # Like every column pass, valid_mask agrees with validate_job.
        jobs = JobSet([make_job(), job])
        assert valid_mask(jobs.columns).tolist() == [True, False]

    def test_negative_arrival_is_invalid(self):
        assert validate_job(make_job(arrival=-0.5)) == "arrival_time must be >= 0"
        assert validate_job(make_job(arrival=0.0)) is None


class TestDefaultCatalog:
    def test_has_five_entries(self):
        assert len(default_catalog()) == 5

    def test_small_entry(self):
        small = next(e for e in default_catalog() if e.name == "m1.small")
        assert (small.cores, small.ecus, small.ram, small.arch_bits, small.disk,
                small.cost) == (1, 1, 1.7, 32, 160, 0.1)

    def test_xlarge_compute_entry(self):
        entry = next(e for e in default_catalog() if e.name == "c1.xlarge")
        assert (entry.cores, entry.ecus, entry.ram, entry.arch_bits, entry.disk,
                entry.cost) == (8, 20, 7.0, 64, 1690, 0.8)

    def test_all_rows(self):
        rows = {(e.name, e.cores, e.ecus, e.ram, e.arch_bits, e.disk, e.cost)
                for e in default_catalog()}
        assert rows == {
            ("m1.small", 1, 1, 1.7, 32, 160, 0.1),
            ("m1.large", 2, 4, 7.5, 64, 850, 0.4),
            ("m1.xlarge", 4, 8, 15.0, 64, 1690, 0.8),
            ("c1.medium", 2, 5, 1.7, 32, 350, 0.2),
            ("c1.xlarge", 8, 20, 7.0, 64, 1690, 0.8),
        }

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            ResourceCatalogEntry("bad", 0, 1, 1.0, 32, 10, 0.1)
        with pytest.raises(ValueError):
            ResourceCatalogEntry("bad", 1, 1, 1.0, 16, 10, 0.1)

    def test_fits(self):
        small = default_catalog()[0]
        assert small.fits(ResourceDemand(1, 1.5, 100.0))
        assert not small.fits(ResourceDemand(2, 1.5, 100.0))
        assert not small.fits(ResourceDemand(1, 2.0, 100.0))


# The float fields of SimConfig.
SIM_FLOAT_FIELDS = ("arrival_rate", "beta", "w_urgency", "order_norm", "relationship_norm",
                    "business_cap", "retry_interval", "due_time", "exec_time", "prep_time",
                    "epoch_length")


class TestSimConfig:
    def test_defaults_match_reference_scenario(self):
        cfg = SimConfig()
        assert cfg.num_tasks == 2000
        assert cfg.num_vms == 2500
        assert (cfg.due_time, cfg.exec_time, cfg.prep_time) == (700.0, 650.0, 5.0)
        assert cfg.beta == 60.0
        assert len(cfg.class_rates) == 6

    def test_class_rates_must_sum_to_rate(self):
        with pytest.raises(ValueError, match="sum"):
            SimConfig(arrival_rate=1.0, class_rates=(0.3, 0.3))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SimConfig(seed=-1)

    def test_seed_must_fit_the_128_bit_draw_key(self):
        assert SimConfig(seed=2**128 - 1).seed == 2**128 - 1
        with pytest.raises(ValueError, match=r"seed must be < 2\*\*128"):
            SimConfig(seed=2**128)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", SIM_FLOAT_FIELDS)
    def test_non_finite_float_field_rejected_naming_it(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SimConfig(**{name: value})

    def test_every_float_field_is_checked(self):
        assert set(SIM_FLOAT_FIELDS) == {f.name for f in fields(SimConfig) if f.type == "float"}

    @pytest.mark.parametrize("rate", [0, -1.0])
    def test_non_positive_arrival_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="arrival_rate must be > 0"):
            SimConfig(arrival_rate=rate)

    def test_beta_range(self):
        with pytest.raises(ValueError, match=r"beta must be in \[0,100\]"):
            SimConfig(beta=150)

    @pytest.mark.parametrize("name,message", [
        ("catalog", "catalog must be non-empty"),
        ("allocation_bands", "allocation_bands must be non-empty"),
    ])
    def test_empty_table_rejected_naming_its_field(self, name, message):
        # A config file cannot reach these: its type checks reject an empty list.
        with pytest.raises(FieldError, match=f"^{message}$") as exc:
            SimConfig(**{name: ()})
        assert exc.value.field == name

    def test_urgency_weight_must_be_in_unit_interval(self):
        # 1 - w_urgency weighs the demand, so both ends are valid.
        assert [SimConfig(w_urgency=w).w_urgency for w in (0.0, 1.0)] == [0.0, 1.0]
        for w in (-0.1, -5e-324, math.nextafter(1.0, 2.0), 1.1):
            with pytest.raises(FieldError, match=r"^w_urgency must be in \[0,1\]$") as exc:
                SimConfig(w_urgency=w)
            assert exc.value.field == "w_urgency"

    def test_band_gap_rejected(self):
        bands = ((1, 10, 1.0), (21, 100, 0.5))
        with pytest.raises(ValueError):
            SimConfig(allocation_bands=bands)

    def test_band_increase_rejected(self):
        bands = ((1, 50, 0.5), (51, 100, 0.9))
        with pytest.raises(ValueError):
            SimConfig(allocation_bands=bands)

    def test_band_probability_range(self):
        with pytest.raises(ValueError):
            SimConfig(allocation_bands=((1, 100, 0.0),))
        with pytest.raises(ValueError):
            SimConfig(allocation_bands=((1, 100, 1.5),))

    def test_default_bands_cover_scale(self):
        assert DEFAULT_ALLOCATION_BANDS[0] == (1, 10, 1.0)
        assert DEFAULT_ALLOCATION_BANDS[-1] == (91, 100, 0.3)
        assert sum(hi - lo + 1 for lo, hi, _ in DEFAULT_ALLOCATION_BANDS) == 100

    def test_reference_band_values(self):
        assert [_band_probability(r) for r in (5, 35, 55)] == [1.0, 0.9, 0.7]

    def test_extension_band(self):
        assert _band_probability(75) == 0.5

    def test_non_increasing_over_full_scale(self):
        probs = [_band_probability(r) for r in range(1, 101)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValueError, match="must cover ranks 1..100"):
            SimConfig(allocation_bands=((1, 50, 0.9),))
        with pytest.raises(ValueError, match="must not overlap"):
            SimConfig(allocation_bands=((1, 60, 0.9), (50, 100, 0.8)))
        with pytest.raises(ValueError, match="non-increasing"):
            SimConfig(allocation_bands=((1, 50, 0.5), (51, 100, 0.9)))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="^num_vms must be >= 1$"):
            SimConfig(num_vms=0)

    def test_run_limits_must_be_in_range(self):
        assert SimConfig(max_retries=0, max_queue_length=1).max_retries == 0
        with pytest.raises(ValueError, match="^max_retries must be >= 0$"):
            SimConfig(max_retries=-3)
        with pytest.raises(ValueError, match="^max_queue_length must be >= 1$"):
            SimConfig(max_queue_length=0)


def _band_probability(rank: int) -> float:
    """The admission probability of rank's band in DEFAULT_ALLOCATION_BANDS."""
    (p,) = [p for lo, hi, p in DEFAULT_ALLOCATION_BANDS if lo <= rank <= hi]
    return p


demands = st.builds(
    ResourceDemand,
    processors=st.integers(1, 64),
    memory=st.floats(0.1, 512.0),
    storage=st.floats(0.0, 10000.0),
)
businesses = st.builds(
    BusinessProfile,
    order_amount=st.floats(0.0, 1e6),
    relationship=st.floats(0.0, 1e4),
)
# String ids that read back as strings from a job file: not integer-like, no NUL.
text_ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                   min_size=1, max_size=8).filter(lambda s: not s.lstrip("-").isdigit())
jobs = st.builds(
    Job,
    id=st.one_of(st.integers(0, 10**6), text_ids),
    arrival_time=st.floats(0.0, 1e6),
    due_time=st.floats(0.1, 1e6),
    exec_time=st.floats(0.1, 1e6),
    prep_time=st.floats(0.0, 1e4),
    demand=demands,
    business=businesses,
)


class TestRoundTrip:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(job=jobs)
    def test_job_file_round_trip(self, tmp_path, job):
        path = cli._write_table(tmp_path, "jobs", JOB_FILE_FIELDS, job_rows(JobSet([job])),
                                "csv")
        assert list(load_jobs(path)) == [job]

    def test_sim_config_round_trip(self):
        cfg = SimConfig(seed=99, beta=55.0, class_rates=(0.25, 0.75))
        d = cfg.to_dict()
        assert json.loads(json.dumps(d)) == d  # JSON-native: lists, not tuples
        again = SimConfig(**{
            **d,
            "class_rates": tuple(d["class_rates"]),
            "catalog": tuple(ResourceCatalogEntry(**c) for c in d["catalog"]),
            "allocation_bands": tuple(tuple(b) for b in d["allocation_bands"]),
        })
        assert again == cfg

    def test_priority_record_round_trip(self):
        # A job's priority record is serialized as part of its JobRecord.
        cfg = SimConfig(num_tasks=1, class_rates=(1.0,))
        job = make_job(business=BusinessProfile(400.0, 0.0))
        rec = build_record(job, WindowStats.from_jobs([job]), cfg)
        report = run(cfg, [job])
        again = JobRecord(**json.loads(json.dumps(asdict(report.jobs[0]))))
        assert again == report.jobs[0]
        assert ((again.t_start, again.demand_weight, again.tp_score, again.bp_score,
                 again.resultant, again.rank) == (rec.t_start, rec.demand_weight,
                                                  rec.tp_score, rec.bp_score,
                                                  rec.resultant, rec.rank))
        assert (again.class_index, again.chain_position) == (1, 1)

    def test_priority_record_without_chain(self):
        # A rejected job never gets a priority record or a chain key.
        cfg = SimConfig(num_tasks=1, class_rates=(1.0,))
        report = run(cfg, [make_job(exec_time=0.0)])
        again = JobRecord(**json.loads(json.dumps(asdict(report.jobs[0]))))
        assert again == report.jobs[0]
        assert (again.rank, again.class_index, again.chain_position) == (None, None, None)

    def test_catalog_entry_round_trip(self):
        for entry in default_catalog():
            assert ResourceCatalogEntry(**json.loads(json.dumps(jsonable(entry)))) == entry
