"""cloudsched: discrete-event simulator and analysis library for cloud task
scheduling with hybrid technical/business priorities."""

from .domain import (
    DEFAULT_ALLOCATION_BANDS,
    BusinessProfile,
    Job,
    PriorityRecord,
    ResourceCatalogEntry,
    ResourceDemand,
    SimConfig,
    ValidationResult,
    default_catalog,
    validate_job,
)
from .priority import (
    EmptyWindowError,
    PriorityEngineConfig,
    WindowStats,
    build_record,
    business_priority,
    chain_compare,
    compute_start_time,
    demand_weight,
    resultant_priority,
    score_to_rank,
    service_level_satisfaction,
    technical_priority,
    tolerance_check,
)
from .queueing import (
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
from .simulator import (
    InsufficientSamplesError,
    JobRecord,
    ReplicationRow,
    SimReport,
    compare_analytic,
    deadline_qos,
    replication_bundle,
    run,
    waiting_time_model,
)
from .workload import (
    Distribution,
    InvalidJobError,
    InvalidRateError,
    ParseError,
    WorkloadSpec,
    generate_arrivals,
    jobs_to_csv,
    load_jobs,
    sample_jobs,
    save_jobs,
    spec_from_sim,
    thin_by_class,
)

__version__ = "0.1.0"
