"""repro.dse — design-space exploration over the accelerator models.

The co-simulation stack (PRs 3-5) made one design point cheap to price
at three fidelities; this package makes the *space* cheap to sweep:

- :mod:`repro.dse.campaign` — design points and declarative campaign
  specs (axes crossed over a base point, feasibility filtering);
- :mod:`repro.dse.tiers` — the evaluation ladder: closed-form models
  for the full grid, the exact vectorized schedule solve for Pareto
  survivors, full payload-carrying co-simulation for the finalists,
  with cross-tier agreement bounds;
- :mod:`repro.dse.fingerprint` — stable content fingerprints of
  configuration objects (the cache address and BENCH metadata);
- :mod:`repro.dse.cache` — the content-addressed result cache
  (in-memory + atomic on-disk segments of JSON rows, hit/miss
  accounting);
- :mod:`repro.dse.pareto` — vectorized Pareto-front extraction
  (cycles vs LUT/DSP/BRAM);
- :mod:`repro.dse.pool` — the fault-tolerant
  :class:`~repro.dse.pool.SupervisedPool` (dead-worker respawn,
  per-batch deadlines, backoff retries, bisection quarantine), its
  :class:`~repro.dse.pool.RetryPolicy`, and
  :func:`~repro.dse.pool.shared_pool`, the one live pool per process
  that every campaign's cosim tier reuses;
- :mod:`repro.dse.checkpoint` — the append-only campaign progress
  journal behind ``run_campaign(..., resume=True)``;
- :mod:`repro.dse.executor` — :func:`~repro.dse.executor.run_campaign`
  (supervised sharding, deterministic merge, checkpoint/resume).
"""

from .cache import CacheStats, ResultCache, cache_key
from .campaign import CASES, PARTITIONS, CampaignSpec, DesignPoint
from .checkpoint import CampaignJournal, JournalState, journal_path
from .executor import (
    AgreementCheck,
    CampaignResult,
    run_campaign,
)
from .pool import PoolStats, RetryPolicy, SupervisedPool
from .fingerprint import canonicalize, fingerprint
from .pareto import PARETO_OBJECTIVES, pareto_front, pareto_indices
from .tiers import (
    TIER_AGREEMENT_BOUNDS,
    TIERS,
    PointResult,
    design_for,
    evaluate_closed_form,
    evaluate_cosim,
    evaluate_exact,
    evaluate_point,
    prewarm_designs,
    tier_agreement,
)

__all__ = [
    "CASES",
    "PARTITIONS",
    "CampaignSpec",
    "DesignPoint",
    "CacheStats",
    "ResultCache",
    "cache_key",
    "AgreementCheck",
    "CampaignJournal",
    "CampaignResult",
    "JournalState",
    "PoolStats",
    "RetryPolicy",
    "SupervisedPool",
    "journal_path",
    "run_campaign",
    "canonicalize",
    "fingerprint",
    "PARETO_OBJECTIVES",
    "pareto_front",
    "pareto_indices",
    "TIERS",
    "TIER_AGREEMENT_BOUNDS",
    "PointResult",
    "design_for",
    "evaluate_closed_form",
    "evaluate_cosim",
    "evaluate_exact",
    "evaluate_point",
    "prewarm_designs",
    "tier_agreement",
]
