import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cloudsched import cli
from cloudsched.domain import (
    BusinessProfile,
    Job,
    ResourceCatalogEntry,
    ResourceDemand,
    SimConfig,
    validate_job,
)
from cloudsched.priority import business_priority
from cloudsched.workload import (
    JOB_FILE_FIELDS,
    Distribution,
    InvalidJobError,
    ParseError,
    WorkloadSpec,
    generate_arrivals,
    job_rows,
    load_jobs,
    sample_jobs,
)


def config(num_tasks=100, seed=7):
    """A one-class config at 1 job/s."""
    return SimConfig(num_tasks=num_tasks, seed=seed, class_rates=(1.0,))


def jobs_of(num_tasks=100, seed=7, **spec_values):
    """config()'s jobs, drawn from its fixed-timing spec with spec_values set."""
    cfg = config(num_tasks, seed)
    spec = replace(WorkloadSpec.fixed(cfg), **spec_values)
    return sample_jobs(cfg, spec)


class TestGenerateArrivals:
    def test_mean_gap_matches_rate(self):
        cfg = config(num_tasks=10_000)
        arrivals = generate_arrivals(cfg)
        gaps = np.diff(np.concatenate([[0.0], arrivals]))
        # independent check of the sample mean, not numpy's
        mean_gap = statistics.fmean(float(g) for g in gaps)
        assert abs(mean_gap - 1.0) <= 0.05

    def test_single_task(self):
        cfg = config(num_tasks=1)
        arrivals = generate_arrivals(cfg)
        assert len(arrivals) == 1
        assert arrivals[0] >= 0.0

    def test_non_decreasing(self):
        arrivals = generate_arrivals(config(num_tasks=500))
        assert (np.diff(arrivals) >= 0).all()

    def test_determinism_bit_exact(self):
        cfg = config(num_tasks=1000)
        a = generate_arrivals(cfg)
        b = generate_arrivals(cfg)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = generate_arrivals(config(seed=1))
        b = generate_arrivals(config(seed=2))
        assert a.tobytes() != b.tobytes()

    def test_window_counts_fit_poisson(self):
        # chi-square goodness of fit of per-window arrival counts
        cfg = config(num_tasks=10_000, seed=3)
        arrivals = generate_arrivals(cfg)
        w = 10.0
        n_windows = int(arrivals[-1] // w)
        counts = np.histogram(arrivals, bins=n_windows, range=(0.0, n_windows * w))[0]
        lam = cfg.arrival_rate * w
        lo, hi = 4, 17  # merge tails so every expected bin count is >= 5
        edges = list(range(lo, hi + 1))
        observed = [np.sum(counts <= lo)]
        expected = [stats.poisson.cdf(lo, lam) * n_windows]
        for k in edges[1:]:
            observed.append(np.sum(counts == k))
            expected.append(stats.poisson.pmf(k, lam) * n_windows)
        observed.append(np.sum(counts > hi))
        expected.append(stats.poisson.sf(hi, lam) * n_windows)
        assert min(expected) >= 5.0
        result = stats.chisquare(observed, np.array(expected) * (sum(observed) / sum(expected)))
        assert result.pvalue > 0.01


class TestSampleJobs:
    def test_reference_fixed_spec_all_valid(self):
        jobs = jobs_of(num_tasks=200)
        assert all(validate_job(j) is None for j in jobs)
        assert all((j.due_time, j.exec_time, j.prep_time) == (700.0, 650.0, 5.0)
                   for j in jobs)

    def test_zero_business_ranges(self):
        jobs = jobs_of(num_tasks=50, order_range=(0.0, 0.0), relationship_range=(0.0, 0.0))
        assert all(business_priority(j.business, SimConfig()) == 0.0 for j in jobs)

    def test_requested_count(self):
        assert len(jobs_of(num_tasks=2000)) == 2000

    def test_demand_comes_from_catalog_shapes(self):
        jobs = jobs_of(num_tasks=300)
        shapes = {(e.cores, e.ram, e.disk) for e in config().catalog}
        assert all((j.demand.processors, j.demand.memory, j.demand.storage) in shapes
                   for j in jobs)

    def test_demand_weights_bias(self):
        weights = (1.0, 0.0, 0.0, 0.0, 0.0)
        # a zero weight means that shape never appears
        jobs = jobs_of(num_tasks=200, demand_weights=weights)
        assert all(j.demand.processors == 1 for j in jobs)

    def test_determinism(self):
        assert jobs_of(num_tasks=100) == jobs_of(num_tasks=100)

    def test_columns_are_the_value_lists_as_floats(self):
        # sample_jobs builds the set's float64 columns from its draws: bit for
        # bit the array of its value lists, with the catalog's ints (one of
        # them with no exact float) converted as float() converts them.
        catalog = (ResourceCatalogEntry("a", 2**53 + 1, 1, 10**20, 64, 3, 0.5),
                   ResourceCatalogEntry("b", 2, 1, 1.7, 32, 160.0, 0.1))
        cfg = replace(config(num_tasks=300), catalog=catalog)
        spec = replace(WorkloadSpec.fixed(cfg), due_dist=Distribution("uniform", (660.0, 3600.0)),
                       exec_dist=Distribution("exponential", (650.0,)))
        jobs = sample_jobs(cfg, spec)
        assert {type(v) for v in jobs.values[4]} == {int}
        assert jobs.columns.dtype == np.float64 and not jobs.columns.flags.writeable
        assert jobs.columns.tobytes() == np.array(jobs.values, dtype=float).tobytes()

    def test_fixed_spec_takes_the_config_timing(self):
        spec = WorkloadSpec.fixed(SimConfig(due_time=800.0, exec_time=600.0, prep_time=2.0))
        assert (spec.due_dist, spec.exec_dist, spec.prep_dist) == (
            Distribution("fixed", (800.0,)), Distribution("fixed", (600.0,)),
            Distribution("fixed", (2.0,)))
        assert spec == WorkloadSpec(spec.due_dist, spec.exec_dist, spec.prep_dist)


class TestDistribution:
    def test_kinds_validate(self):
        with pytest.raises(ValueError):
            Distribution("fixed", (1.0, 2.0))
        with pytest.raises(ValueError):
            Distribution("uniform", (5.0, 1.0))
        with pytest.raises(ValueError):
            Distribution("exponential", (0.0,))
        with pytest.raises(ValueError):
            Distribution("zipf", (1.0,))

    def test_sampling_shapes(self):
        rng = np.random.default_rng(0)
        assert (Distribution("fixed", (3.0,)).sample(rng, 4) == 3.0).all()
        u = Distribution("uniform", (1.0, 2.0)).sample(rng, 100)
        assert ((u >= 1.0) & (u <= 2.0)).all()
        e = Distribution("exponential", (5.0,)).sample(rng, 100)
        assert (e >= 0.0).all()


class TestWorkloadSpecInvariants:
    @pytest.mark.parametrize("weights", [(0.0,) * 5, (1.0, -1.0, 1.0, 1.0, 1.0), (),
                                         (1.0, math.nan, 1.0, 1.0, 1.0),
                                         (1.0, math.inf, 1.0, 1.0, 1.0)])
    def test_demand_weights_must_be_non_negative_with_a_positive_sum(self, weights):
        with pytest.raises(ValueError, match="demand_weights must be non-negative"):
            replace(WorkloadSpec.fixed(SimConfig()), demand_weights=weights)

    @pytest.mark.parametrize("name", ["order_range", "relationship_range"])
    @pytest.mark.parametrize("bounds", [(2.0, 1.0), (-1.0, 1.0)])
    def test_ranges_must_be_ordered_and_non_negative(self, name, bounds):
        with pytest.raises(ValueError, match=f"{name} must be"):
            replace(WorkloadSpec.fixed(SimConfig()), **{name: bounds})


class TestJobFile:
    def test_round_trip(self, tmp_path):
        jobs = jobs_of(num_tasks=25)
        path = cli._write_table(tmp_path, "jobs", JOB_FILE_FIELDS, job_rows(jobs), "csv")
        assert load_jobs(path) == jobs

    @pytest.mark.parametrize("rows,error,record,reason", [
        # An invalid record 2 before an unparseable record 4.
        (["0,0.0,700,650,5,1,1.7,160,100,5", "1,0.0,700,0,5,1,1.7,160,100,5",
          "2,0.0,700,650,5,1,1.7,160,100,5", "3,zzz,700,650,5,1,1.7,160,100,5"],
         InvalidJobError, 2, "exec_time must be > 0"),
        # An invalid record before a duplicate id.
        (["7,0.0,700,650,5,1,1.7,160,100,5", "8,-1,700,650,5,1,1.7,160,100,5",
          "7,2.0,700,650,5,1,1.7,160,100,5"], InvalidJobError, 2, "arrival_time must be >= 0"),
        # A record that is invalid and repeats an id is reported as invalid.
        (["7,0.0,700,650,5,1,1.7,160,100,5", "7,0.0,700,650,5,0,1.7,160,100,5"],
         InvalidJobError, 2, "processors must be >= 1"),
        # A duplicate id before an invalid record.
        (["7,0.0,700,650,5,1,1.7,160,100,5", "7,1.0,700,650,5,1,1.7,160,100,5",
          "8,0.0,700,650,5,1,1.7,160,100,-1"], InvalidJobError, 2, "duplicate job id 7"),
        # A blank line keeps the later record numbers.
        (["0,0.0,700,650,5,1,1.7,160,100,5", "", "1,0.0,700,650,5,1,1.7,160,100,5",
          "2,0.0,nan,650,5,1,1.7,160,100,5"], InvalidJobError, 4, "due_time must be finite"),
        # A wrong field count after an invalid record.
        (["0,0.0,700,650,5,1,1.7,160,100,5", "1,0.0,700,650,-5,1,1.7,160,100,5", "2,0.0,700"],
         InvalidJobError, 2, "prep_time must be >= 0"),
        # An unparseable record before an invalid one, and before a wrong
        # field count; in a record, the first field that does not parse.
        (["0,0.0,700,650,5,1,x,160,100,5", "1,0.0,700,0,5,1,1.7,160,100,5"],
         ParseError, 1, "field 'mem': cannot parse 'x' as a number"),
        (["0,0.0,700,650,5,1,1.7,160,100", "1,zzz,700,650,5,1,1.7,160,100,5"],
         ParseError, 1, "expected 10 fields, got 9"),
        (["0,0.0,700,650,5,1.5,1.7,y,100,5"],
         ParseError, 1, "field 'pn': cannot parse '1.5' as an integer"),
        # A processor count too large for a float, after a record whose
        # storage does not parse.
        (["0,0.0,700,650,5,1,1.7,160,100,5", "1,0.0,700,650,5,1,1.7,z,100,5",
          f"2,0.0,700,650,5,{'9' * 400},1.7,160,100,5"],
         ParseError, 2, "field 'storage': cannot parse 'z' as a number"),
        # A field over the csv module's size limit, after a blank line and
        # after an invalid record.
        (["0,0.0,700,650,5,1,1.7,160,100,5", "", f"1,{'9' * 200_000},700,650,5,1,1.7,160,100,5"],
         ParseError, 3, "field larger than field limit (131072)"),
        (["0,0.0,700,0,5,1,1.7,160,100,5", f"1,{'9' * 200_000},700,650,5,1,1.7,160,100,5"],
         InvalidJobError, 1, "exec_time must be > 0"),
    ])
    def test_first_error_in_record_order(self, tmp_path, rows, error, record, reason):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            + "\n".join(rows) + "\n")
        with pytest.raises(error) as err:
            load_jobs(path)
        assert (err.value.record, err.value.reason) == (record, reason)

    def test_values_keep_their_types(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            " 1_0 ,0,700,650,5, 2 ,1_0.5,160,1e2,5\n"
            "a,1.5,700,650,5,1,1.7,160,100,5\n")
        jobs = load_jobs(path)
        assert repr(list(jobs)) == repr([
            Job(" 1_0 ", 0.0, 700.0, 650.0, 5.0, ResourceDemand(2, 10.5, 160.0),
                BusinessProfile(100.0, 5.0)),
            Job("a", 1.5, 700.0, 650.0, 5.0, ResourceDemand(1, 1.7, 160.0),
                BusinessProfile(100.0, 5.0))])

    def test_three_valid_records(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            "0,0.0,700,650,5,1,1.7,160,100,5\n"
            "1,1.5,700,650,5,2,7.5,850,0,0\n"
            "2,2.5,900,100,5,1,1.0,10,50,1\n")
        jobs = load_jobs(path)
        assert len(jobs) == 3
        assert jobs[1].demand.memory == 7.5

    def test_invalid_record_is_reported_with_number(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            "0,0.0,700,0,5,1,1.7,160,100,5\n")
        with pytest.raises(InvalidJobError) as err:
            load_jobs(path)
        assert err.value.record == 1
        assert err.value.reason == "exec_time must be > 0"

    def test_duplicate_id_is_reported_with_number(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            "7,0.0,700,650,5,1,1.7,160,100,5\n"
            "8,1.0,700,650,5,1,1.7,160,100,5\n"
            "7,2.0,700,650,5,1,1.7,160,100,5\n")
        with pytest.raises(InvalidJobError) as err:
            load_jobs(path)
        assert err.value.record == 3
        assert err.value.reason == "duplicate job id 7"

    def test_non_finite_record_is_invalid(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            "0,nan,700,650,5,1,1.7,160,100,5\n")
        with pytest.raises(InvalidJobError) as err:
            load_jobs(path)
        assert err.value.reason == "arrival_time must be finite"

    def test_malformed_record_is_a_parse_error(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            "0,0.0,700,650,5,1,1.7,160,100,5\n"
            "1,zzz,700,650,5,1,1.7,160,100,5\n")
        with pytest.raises(ParseError) as err:
            load_jobs(path)
        assert err.value.record == 2
        assert "arrival" in err.value.reason

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            "0,0.0,700\n")
        with pytest.raises(ParseError) as err:
            load_jobs(path)
        assert err.value.record == 1

    def test_bad_header(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("id,when\n0,1\n")
        with pytest.raises(ParseError) as err:
            load_jobs(path)
        assert err.value.record == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("")
        assert len(load_jobs(path)) == 0

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n")
        assert len(load_jobs(path)) == 0

    def test_header_over_the_csv_field_limit(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("id" * 100_000 + ",arrival\n")
        with pytest.raises(ParseError) as err:
            load_jobs(path)
        assert (err.value.record, err.value.reason) == (0, "field larger than field limit (131072)")

    def test_infeasible_jobs_are_admitted(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            "0,0.0,100,100,5,1,1.7,160,100,5\n")
        jobs = load_jobs(path)
        assert len(jobs) == 1

    def test_string_ids_survive(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(
            "id,arrival,due,exec,prep,pn,mem,storage,order_amount,relationship\n"
            "job-a,0.0,700,650,5,1,1.7,160,100,5\n"
            "--5,1.0,700,650,5,1,1.7,160,100,5\n"
            "\u00b2,2.0,700,650,5,1,1.7,160,100,5\n"
            "\u0663,3.0,700,650,5,1,1.7,160,100,5\n"
            "-5,4.0,700,650,5,1,1.7,160,100,5\n")
        # Only ASCII digits with an optional minus sign make an int id.
        assert [j.id for j in load_jobs(path)] == ["job-a", "--5", "\u00b2", "\u0663", -5]
