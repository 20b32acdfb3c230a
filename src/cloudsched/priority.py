"""Priority algebra: start slack, demand weight, technical and business scores,
threshold-gated resultant score and rank conversion. The tuning values (beta,
the urgency weight w_urgency, normalizers, business cap) are read from
SimConfig; the demand weight of the technical score is 1 - w_urgency."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    BusinessProfile,
    Job,
    PriorityRecord,
    ResourceDemand,
    SimConfig,
    start_and_weight,
)


class EmptyWindowError(ValueError):
    """Raised when priority normalization is asked for an empty job window."""


@dataclass(frozen=True)
class WindowStats:
    """Normalization statistics over the jobs of one classification window."""

    count: int
    t_start_min: float
    t_start_max: float
    demand_weight_max: float

    @classmethod
    def from_jobs(cls, jobs) -> "WindowStats":
        if not jobs:
            raise EmptyWindowError("window must contain at least one job")
        starts = [compute_start_time(j) for j in jobs]
        weights = [demand_weight(j.demand) for j in jobs]
        return cls(count=len(jobs), t_start_min=min(starts), t_start_max=max(starts),
                   demand_weight_max=max(weights))


def compute_start_time(job: Job) -> float:
    """Latest start offset that still meets the due time, relative to arrival.

    Due time minus execution and preparation time. Negative means the job is
    already late at arrival.
    """
    return job.due_time - job.exec_time - job.prep_time


def demand_weight(d: ResourceDemand) -> float:
    """Aggregate resource demand: processors + memory + storage."""
    return d.processors + d.memory + d.storage


def technical_priority(job: Job, window: WindowStats, cfg: SimConfig) -> int:
    """Score a job 0..100 from start-time urgency and resource demand.

    Urgency is 1 for the earliest start slack in the window and 0 for the
    latest (1 when the window has no spread); demand is normalized against the
    window's maximum. The blend w_urgency * urgency + (1 - w_urgency) * demand
    is scaled to 100 and rounded. Where the window's spread overflows to inf,
    urgency is computed from the halves of its slacks and the job's.
    """
    if window.count < 1:
        raise EmptyWindowError("window must contain at least one job")
    t_start = compute_start_time(job)
    t_min, t_max = window.t_start_min, window.t_start_max
    if math.isinf(t_max - t_min):
        # A spread of finite slacks that overflows: u from their halves.
        t_min, t_max, t_start = t_min * 0.5, t_max * 0.5, t_start * 0.5
    spread = t_max - t_min
    if spread > 0:
        u = (t_max - t_start) / spread
    else:
        u = 1.0
    u = min(max(u, 0.0), 1.0)
    if window.demand_weight_max > 0:
        v = demand_weight(job.demand) / window.demand_weight_max
    else:
        v = 1.0
    v = min(max(v, 0.0), 1.0)
    score = round(100.0 * (cfg.w_urgency * u + (1.0 - cfg.w_urgency) * v))
    return int(min(max(score, 0), 100))


def business_priority(b: BusinessProfile, cfg: SimConfig) -> float:
    """Business boost: scaled order amount plus scaled relationship, capped."""
    raw = cfg.order_norm * b.order_amount + cfg.relationship_norm * b.relationship
    return min(max(raw, 0.0), cfg.business_cap)


def resultant_priority(tp: float, bp: float, cfg: SimConfig) -> float:
    """Combine technical score and business boost.

    Above the beta threshold the boost is added (capped at 100); at or below
    it the job keeps its native technical score.
    """
    if tp > cfg.beta:
        return min(tp + bp, 100.0)
    return float(tp)


def service_level_satisfaction(score: float) -> float:
    """Service level satisfaction of a priority score (numerically the score itself)."""
    if not (0.0 <= score <= 100.0):
        raise ValueError("score must be in [0,100]")
    return float(score)


def score_to_rank(score: float) -> int:
    """Map a 0..100 score (higher better) onto the 1..100 rank scale (1 best)."""
    if not (0.0 <= score <= 100.0):
        raise ValueError("score must be in [0,100]")
    return int(min(max(round(101 - score), 1), 100))


def build_record(job: Job, window: WindowStats, cfg: SimConfig,
                 apply_business: bool = True) -> PriorityRecord:
    """Compute the full priority record for a job against its window.

    With apply_business False the resultant equals the native technical score;
    the business boost is still computed and recorded for reporting.
    """
    tp = technical_priority(job, window, cfg)
    bp = business_priority(job.business, cfg)
    if apply_business:
        resultant = resultant_priority(tp, bp, cfg)
    else:
        resultant = float(tp)
    return PriorityRecord(
        t_start=compute_start_time(job),
        demand_weight=demand_weight(job.demand),
        tp_score=tp,
        bp_score=bp,
        resultant=resultant,
        rank=score_to_rank(resultant),
    )


def _clamp(x, lo, hi):
    """min(max(x, lo), hi) element-wise, keeping Python's choice on ties and NaN.

    np.minimum/np.maximum differ from min/max on the sign of zero and on NaN,
    so this uses the comparisons min and max make.
    """
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def technical_columns(columns, windows, cfg: SimConfig):
    """build_record's mode-free priority fields for many jobs at once, equal bit
    for bit: the lists (t_start, demand_weight, tp_score, bp_score), one entry
    per job, with the types build_record gives them when the job's values are
    floats.

    columns holds the jobs' JobSet.columns, and windows their (t_start_min,
    t_start_max, demand_weight_max) arrays, one value per job, as
    window_stats_by_epoch gives them. Every column repeats the scalar
    operations in the same order, the demand weight 1 - w_urgency included;
    np.rint rounds half to even, as round()
    does. A NaN technical score raises ValueError, as score_to_rank does for
    the resultant it becomes in either mode.
    """
    t_start, weight = start_and_weight(columns)
    order, relationship = columns[7], columns[8]
    t_min, t_max, weight_max = windows
    # Where the spread overflows, the slacks are halved, as technical_priority
    # halves them; times 1.0 elsewhere, which changes no bit.
    with np.errstate(over="ignore"):
        scale = np.where(np.isinf(t_max - t_min), 0.5, 1.0)
    t_min, t_max, scaled_start = t_min * scale, t_max * scale, t_start * scale
    spread = t_max - t_min
    has_spread, has_weight = spread > 0, weight_max > 0
    u = np.where(has_spread, (t_max - scaled_start) / np.where(has_spread, spread, 1.0), 1.0)
    v = np.where(has_weight, weight / np.where(has_weight, weight_max, 1.0), 1.0)
    score = np.rint(100.0 * (cfg.w_urgency * _clamp(u, 0.0, 1.0)
                             + (1.0 - cfg.w_urgency) * _clamp(v, 0.0, 1.0)))
    tp = _clamp(score, 0.0, 100.0)
    if np.isnan(tp).any():
        raise ValueError("score must be in [0,100]")
    raw = cfg.order_norm * order + cfg.relationship_norm * relationship
    bp = _clamp(raw, 0.0, cfg.business_cap)
    return t_start.tolist(), weight.tolist(), tp.astype(np.int64).tolist(), bp.tolist()


def resultant_columns(tp, bp, cfg: SimConfig, apply_business: bool = True):
    """build_record's resultant and rank for many jobs at once, equal bit for
    bit, from the tp_score and bp_score lists of technical_columns. Returns
    the lists (resultant, rank). A resultant outside [0, 100] (a NaN score)
    raises ValueError, as score_to_rank does.
    """
    tp = np.array(tp, dtype=float)
    if apply_business:
        boosted = tp + np.array(bp, dtype=float)
        resultant = np.where(tp > cfg.beta, np.where(100.0 < boosted, 100.0, boosted), tp)
    else:
        resultant = tp
    if not np.all((resultant >= 0.0) & (resultant <= 100.0)):
        raise ValueError("score must be in [0,100]")
    rank = _clamp(np.rint(101.0 - resultant), 1.0, 100.0)
    return resultant.tolist(), rank.astype(np.int64).tolist()
