"""Campaign execution: the tiered sweep, its supervision and checkpoints.

:func:`run_campaign` drives the whole ladder for one
:class:`~repro.dse.campaign.CampaignSpec`:

1. **closed-form tier** over every feasible grid point;
2. **exact tier** on the Pareto front's best ``max_survivors`` points
   (the vectorized schedule solve), each checked against its
   closed-form pricing within the <2% parity bound;
3. **cosim tier** on the best ``max_cosim`` exact survivors (full
   payload-carrying co-simulation), each checked against its exact
   pricing within the <5% bound.

Where a tier's misses run is one rule, in :func:`_evaluate_tier`. The
cosim tier — whole-mesh numerics, the work that can crash or wedge a
process — runs on a :class:`~repro.dse.pool.SupervisedPool` at every
``workers`` value, one point per batch: dead workers are respawned,
hung points hit deadlines, faulted points retry with backoff, and
points that exhaust the budget are **quarantined** as structured
:class:`~repro.dse.tiers.PointResult` failures. The timing tiers price
in the parent under the same quarantine rule: a raising point becomes a
``status="failed"`` casualty, not a dead campaign. Results merge by
index, so they never depend on worker count or completion order.

**Checkpoint/resume** — with a disk-backed cache, every grid chunk and
every promoted point is one segment file of the content-addressed cache
(:mod:`repro.dse.cache`), and every quarantined failure is journaled
(:mod:`repro.dse.checkpoint`) next to the segments.
``run_campaign(..., resume=True)`` replays a killed campaign: cached
points are served without recomputation, journaled quarantines are
restored without re-failing, and only unpriced points are priced.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..backend import resolve_backend_name
from ..errors import DSEError
from ..testing import faults
from .cache import CacheStats, ResultCache, cache_key
from .campaign import CampaignSpec, DesignPoint
from .checkpoint import CampaignJournal, JournalState, journal_path
from .pareto import pareto_front
from .pool import PoolStats, RetryPolicy, SupervisedPool, evaluate_one
from .tiers import (
    TIER_AGREEMENT_BOUNDS,
    TIERS,
    PointResult,
    prewarm_designs,
    tier_agreement,
)


@dataclass
class AgreementCheck:
    """One promoted point's cross-tier consistency record."""

    point: DesignPoint
    tier: str
    relative_error: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.relative_error <= self.bound

    def to_dict(self) -> dict:
        return {
            "point": self.point.spec(),
            "tier": self.tier,
            "relative_error": self.relative_error,
            "bound": self.bound,
            "ok": self.ok,
        }


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    #: Closed-form pricing of every feasible point, in expansion order
    #: (quarantined casualties included, with ``status="failed"``).
    results: list[PointResult]
    #: Infeasible grid points with their reasons.
    skipped: list[tuple[DesignPoint, str]]
    #: Non-dominated closed-form results (cycles vs LUT/DSP/BRAM).
    front: list[PointResult]
    #: Exact-tier pricing of the promoted front candidates.
    survivors: list[PointResult] = field(default_factory=list)
    #: Co-simulated pricing of the finalists.
    cosim: list[PointResult] = field(default_factory=list)
    #: Cross-tier consistency of every promoted point.
    agreement: list[AgreementCheck] = field(default_factory=list)
    #: Cache accounting of the run (``None`` when uncached).
    cache_stats: CacheStats | None = None
    #: Supervision accounting: the cosim pool's counters, plus every
    #: point quarantined in the parent in ``quarantined``.
    supervision: PoolStats | None = None
    #: True when this run resumed from a checkpoint journal.
    resumed: bool = False

    @property
    def num_grid_points(self) -> int:
        return len(self.results) + len(self.skipped)

    @property
    def failures(self) -> list[PointResult]:
        """The campaign's casualty list: every quarantined point across
        every tier."""
        return [
            r
            for tier_results in (self.results, self.survivors, self.cosim)
            for r in tier_results
            if not r.ok
        ]

    @property
    def violations(self) -> list[AgreementCheck]:
        """Agreement checks that exceeded their tier's bound."""
        return [check for check in self.agreement if not check.ok]

    def to_dict(self) -> dict:
        """JSON-ready campaign summary (the BENCH artifact body)."""
        stats = self.cache_stats
        return {
            "campaign": self.spec.spec(),
            "num_grid_points": self.num_grid_points,
            "num_feasible": len(self.results),
            "num_skipped": len(self.skipped),
            "num_failed": len(self.failures),
            "failures": [r.to_dict() for r in self.failures],
            "pareto_front": [r.to_dict() for r in self.front],
            "survivors": [r.to_dict() for r in self.survivors],
            "cosim": [r.to_dict() for r in self.cosim],
            "agreement": [check.to_dict() for check in self.agreement],
            "resumed": self.resumed,
            "supervision": None
            if self.supervision is None
            else self.supervision.to_dict(),
            "cache": None
            if stats is None
            else {**asdict(stats), "hit_rate": stats.hit_rate},
        }


def _evaluate_tier(
    points: list[DesignPoint],
    tier: str,
    cache: ResultCache | None,
    options: dict | None = None,
    *,
    workers: int = 1,
    chunk_size: int = 1,
    retry: RetryPolicy | None = None,
    journal: CampaignJournal | None = None,
    journaled: JournalState | None = None,
    supervision: PoolStats,
) -> list[PointResult]:
    """Price points at one tier: journal-first, cache-second, then the
    misses — on the supervised pool for the cosim tier, in the parent
    for the timing tiers.

    ``workers`` sizes the cosim pool; ``chunk_size`` is the parent's
    points per persisted segment, after each of which the ``dse.batch``
    seam trips at ``(tier, chunk count)``. Results slot in by index, so
    merge order never depends on scheduling or retries. ``options`` are
    forwarded to :func:`~repro.dse.tiers.evaluate_point`.
    """
    options = options or {}
    results: list[PointResult | None] = [None] * len(points)
    missing: list[tuple[int, DesignPoint]] = []
    keys: dict[int, str] = {}  # looked up once, reused to store
    for index, point in enumerate(points):
        if journaled is not None and (tier, index) in journaled.failures:
            # A quarantine recorded by the killed run: restore it
            # instead of re-failing (failures are never cached).
            _, error = journaled.failures[(tier, index)]
            results[index] = PointResult.failed(point, tier, error)
            continue
        if cache is not None:
            keys[index] = cache_key(point, tier)
            results[index] = cache.get(keys[index])
        if results[index] is None:
            missing.append((index, point))

    def quarantine(index: int, point: DesignPoint, error: str) -> None:
        results[index] = PointResult.failed(point, tier, error)
        if journal is not None:
            journal.failure(tier, index, point, error)

    if missing and tier == "cosim":
        # Whole-mesh numerics always run supervised: even at workers=1 a
        # crashing or hanging point must not take the caller down. One
        # point per batch; the forked workers inherit the built designs.
        try:
            prewarm_designs(point for _, point in missing)
        except Exception:  # noqa: BLE001 - workers re-raise per point
            pass
        pool = SupervisedPool(
            min(workers, len(missing)),
            cache_dir=None if cache is None else cache.directory,
            retry=retry,
        )
        try:
            priced, failed = pool.run(
                tier, [[item] for item in missing], options
            )
        finally:
            pool.close()
            supervision.merge(pool.stats)
        if cache is not None:  # the workers wrote the segments
            cache.put_many(
                [(keys[i], r) for i, r in priced.items()], persist=False
            )
        for index, result in priced.items():
            results[index] = result
        for index, (point, error) in failed.items():
            quarantine(index, point, error)
        return results  # type: ignore[return-value]

    # The timing tiers price in the parent, where a pool costs more than
    # the microseconds it ships. A chunk is persisted before the next
    # starts, so a killed campaign loses at most one chunk.
    for count, start in enumerate(range(0, len(missing), chunk_size), 1):
        priced = []
        for index, point in missing[start : start + chunk_size]:
            try:
                result = evaluate_one(index, point, tier, options)
            except Exception as exc:  # noqa: BLE001 - quarantined
                supervision.quarantined += 1
                quarantine(index, point, f"{type(exc).__name__}: {exc}")
                continue
            results[index] = result
            priced.append((keys.get(index), result))
        if cache is not None:
            cache.put_many(priced)
        faults.trip("dse.batch", context=(tier, count))
    return results  # type: ignore[return-value]


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    highest_tier: str = "cosim",
    chunk_size: int = 32,
    retry: RetryPolicy | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Run one campaign through the evaluation ladder.

    Parameters
    ----------
    spec:
        The sweep definition.
    workers:
        Supervised-pool width for the cosim tier (capped at its
        missing point count). The cosim tier runs under supervision
        even at ``workers=1``; the closed-form and exact tiers price in
        the calling process.
    cache:
        Content-addressed result store; misses are computed and stored,
        hits are served (and flagged ``from_cache``) without
        recomputation. A disk-backed cache additionally hosts the
        checkpoint journal.
    highest_tier:
        How far up the ladder to promote: ``"closed-form"`` prices the
        grid only, ``"exact"`` adds the schedule-solve tier, ``"cosim"``
        (default) runs the full ladder.
    chunk_size:
        Grid points per persisted cache segment: a killed campaign
        loses at most one chunk of closed-form pricing.
    retry:
        The :class:`~repro.dse.pool.RetryPolicy` of the cosim tier's
        supervised pool (max retries, per-point deadline, backoff);
        defaults are production-safe.
    resume:
        Resume a killed or interrupted run of this same spec from its
        checkpoint journal: completed points are pure cache hits,
        journaled quarantines are restored, only unpriced points are
        priced. Requires a disk-backed ``cache``.

    Raises
    ------
    DSEError
        On invalid arguments or an all-infeasible grid.
    CheckpointError
        When ``resume=True`` finds a journal written by a different
        campaign.
    """
    if highest_tier not in TIERS:
        raise DSEError(
            f"unknown tier {highest_tier!r}; tiers: {', '.join(TIERS)}"
        )
    if workers < 1:
        raise DSEError("workers must be >= 1")
    if chunk_size < 1:
        raise DSEError("chunk_size must be >= 1")
    if resume and (cache is None or cache.directory is None):
        raise DSEError(
            "resume=True needs a disk-backed cache (the checkpoint "
            "journal lives in the cache directory)"
        )

    journal: CampaignJournal | None = None
    journaled: JournalState | None = None
    resumed = False
    if cache is not None and cache.directory is not None:
        fp = spec.fingerprint()
        journal = CampaignJournal(journal_path(cache.directory, fp))
        if resume:
            state = journal.load(fp)
            if state.exists:
                journaled = state
                resumed = True
        else:
            # A fresh run must not inherit a stale journal of the same
            # spec (e.g. a completed earlier campaign).
            journal.discard()
        if not resumed:
            journal.begin(fp)

    supervision = PoolStats()
    tier_kwargs = {
        "retry": retry,
        "journal": journal,
        "journaled": journaled,
        "supervision": supervision,
    }
    try:
        points, skipped = spec.expand()
        closed = _evaluate_tier(
            points, "closed-form", cache, chunk_size=chunk_size,
            **tier_kwargs,
        )
        ok_closed = [r for r in closed if r.ok]
        front = pareto_front(ok_closed) if ok_closed else []
        result = CampaignResult(
            spec=spec,
            results=closed,
            skipped=skipped,
            front=front,
            cache_stats=None if cache is None else cache.stats,
            supervision=supervision,
            resumed=resumed,
        )
        if highest_tier == "closed-form":
            return result

        by_point = {r.point: r for r in ok_closed}
        candidates = sorted(front, key=lambda r: r.step_cycles)
        promoted = [r.point for r in candidates[: spec.max_survivors]]
        result.survivors = _evaluate_tier(
            promoted, "exact", cache, **tier_kwargs
        )
        for exact in result.survivors:
            if not exact.ok:
                continue
            result.agreement.append(
                AgreementCheck(
                    point=exact.point,
                    tier="exact",
                    relative_error=tier_agreement(
                        by_point[exact.point], exact
                    ),
                    bound=TIER_AGREEMENT_BOUNDS["exact"],
                )
            )
        if highest_tier == "exact":
            return result

        ok_exact = [r for r in result.survivors if r.ok]
        by_point_exact = {r.point: r for r in ok_exact}
        finalists = sorted(ok_exact, key=lambda r: r.step_cycles)
        promoted = [r.point for r in finalists[: spec.max_cosim]]
        # The finalists' payload execution is configured by the spec: the
        # backend is resolved HERE (explicit > REPRO_BACKEND > default) so
        # the streamed ``_many`` kernels hit the chosen backend's batched
        # forms instead of inheriting the module default, and the
        # redundant functional checking solve runs only when the campaign
        # asks for it.
        cosim_options = {
            "backend": resolve_backend_name(spec.backend),
            "verify": spec.cosim_verify,
        }
        result.cosim = _evaluate_tier(
            promoted, "cosim", cache, cosim_options, workers=workers,
            **tier_kwargs,
        )
        for cosim in result.cosim:
            if not cosim.ok:
                continue
            result.agreement.append(
                AgreementCheck(
                    point=cosim.point,
                    tier="cosim",
                    relative_error=tier_agreement(
                        by_point_exact[cosim.point], cosim
                    ),
                    bound=TIER_AGREEMENT_BOUNDS["cosim"],
                )
            )
        return result
    finally:
        if journal is not None:
            journal.close()

