"""cloudsched: discrete-event simulator and analysis library for cloud task
scheduling with hybrid technical/business priorities."""

from .domain import (
    BusinessProfile,
    Job,
    ResourceCatalogEntry,
    ResourceDemand,
    SimConfig,
    default_catalog,
    validate_job,
)
from .queueing import mg1_waiting
from .simulator import JobRecord, JobSet, SimReport, compare_analytic, replication_bundle, run
from .workload import (
    Distribution,
    WorkloadSpec,
    generate_arrivals,
    load_jobs,
    sample_jobs,
)

__version__ = "0.1.0"
