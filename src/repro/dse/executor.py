"""Campaign execution: the supervised tiered sweep, checkpoints, async jobs.

:func:`run_campaign` drives the whole ladder for one
:class:`~repro.dse.campaign.CampaignSpec`:

1. **closed-form tier** over every feasible grid point, sharded in
   chunked batches over a :class:`~repro.dse.pool.SupervisedPool` —
   dead workers are respawned, hung batches hit per-batch deadlines,
   faulted batches retry with capped exponential backoff and bisect
   down to the offending point, and points that exhaust the retry
   budget are **quarantined** as structured
   :class:`~repro.dse.tiers.PointResult` failures. A campaign always
   completes with an explicit casualty list, never an unhandled worker
   exception. Batches are index-tagged and merged in campaign order,
   so the result list is deterministic regardless of worker count,
   retries, or completion order.
2. **exact tier** on the Pareto front's best ``max_survivors`` points
   (the vectorized schedule solve), each checked against its
   closed-form pricing within the <2% parity bound.
3. **cosim tier** on the best ``max_cosim`` exact survivors (full
   payload-carrying co-simulation), each checked against its exact
   pricing within the <5% bound.

Promoted-tier evaluations run in the parent under the same quarantine
rule: a raising point becomes a ``status="failed"`` casualty, not a
dead campaign.

**Checkpoint/resume** — with a disk-backed cache, every completed
pool batch is one segment file of the content-addressed cache
(:mod:`repro.dse.cache`), written by its worker before it replies, and
every quarantined failure is journaled (:mod:`repro.dse.checkpoint`)
next to the segments. ``run_campaign(..., resume=True)`` replays a
killed campaign: cached points are served without recomputation (100%
hits on completed batches), journaled quarantines are restored without
re-failing, and only genuinely unpriced points are dispatched.

:class:`CampaignExecutor` is the asynchronous front-end: ``submit`` a
spec (optionally with a job ``timeout``), ``poll`` its status
(``"running"`` / ``"done"`` / ``"failed"`` / ``"cancelled"``),
``cancel`` it, ``collect`` the result — campaigns run on background
threads (each of which may own its own process pool), so a driver can
keep several sweeps in flight.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field

from ..backend import resolve_backend_name
from ..errors import CampaignCancelled, DSEError
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
    #: Supervised-pool accounting (``None`` when no pool ran).
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


def _check_cancel(cancel) -> None:
    if cancel is not None and cancel.is_set():
        raise CampaignCancelled("campaign cancelled")


def _evaluate_tier(
    points: list[DesignPoint],
    tier: str,
    cache: ResultCache | None,
    workers: int,
    chunk_size: int,
    options: dict | None = None,
    *,
    retry: RetryPolicy | None = None,
    journal: CampaignJournal | None = None,
    journaled: JournalState | None = None,
    supervision: PoolStats | None = None,
    cancel=None,
) -> list[PointResult]:
    """Price points at one tier: journal-first, cache-second, then the
    supervised pool (grid tier) or the in-process quarantine loop
    (promoted tiers).

    The parent resolves journaled quarantines and cache hits up front
    and ships only genuine misses to the pool; batches come back
    index-tagged and slot into the campaign-order result list, so merge
    order never depends on scheduling, retries, or bisection.
    ``options`` are forwarded to :func:`~repro.dse.tiers.evaluate_point`
    (the cosim tier's backend / verify configuration).
    """
    options = options or {}
    results: list[PointResult | None] = [None] * len(points)
    missing: list[tuple[int, DesignPoint]] = []
    for index, point in enumerate(points):
        if journaled is not None and (tier, index) in journaled.failures:
            # A quarantine recorded by the killed run: restore it
            # instead of re-failing (failures are never cached).
            _, error = journaled.failures[(tier, index)]
            results[index] = PointResult.failed(point, tier, error)
            continue
        hit = cache.lookup(point, tier) if cache is not None else None
        if hit is not None:
            results[index] = hit
        else:
            missing.append((index, point))

    _check_cancel(cancel)
    if missing and tier == "closed-form":
        # The grid tier always runs under supervision (workers >= 1):
        # a crashing or hanging evaluation must never take the campaign
        # (or, at workers=1, the caller's process) down with it. Build
        # every needed design in the parent first — fork-started
        # workers inherit the populated cache instead of
        # re-elaborating.
        try:
            prewarm_designs(point for _, point in missing)
        except Exception:  # noqa: BLE001 - workers re-raise per point
            pass
        cache_dir = None if cache is None else cache.directory
        batches = [
            missing[start : start + chunk_size]
            for start in range(0, len(missing), chunk_size)
        ]
        pool = SupervisedPool(
            max(1, workers), cache_dir=cache_dir, retry=retry
        )
        try:
            priced, quarantined = pool.run(
                tier, batches, options, cancel=cancel
            )
        finally:
            pool.close()
            if supervision is not None:
                supervision.merge(pool.stats)
        if cache is not None:
            # Workers already persisted to the shared directory; fill
            # the parent's memory layer only.
            cache.put_many(
                (
                    (cache_key(points[index], tier), result)
                    for index, result in priced.items()
                ),
                persist=False,
            )
        for index, result in priced.items():
            results[index] = result
        for index, (point, error) in quarantined.items():
            results[index] = PointResult.failed(point, tier, error)
            if journal is not None:
                journal.failure(tier, index, point, error)
    elif missing:
        # Promoted tiers run in the parent (their point counts are
        # bounded by max_survivors/max_cosim) under the same quarantine
        # rule: a raising evaluation becomes a casualty, not a crash.
        for index, point in missing:
            _check_cancel(cancel)
            try:
                result = evaluate_one(index, point, tier, options)
            except CampaignCancelled:
                raise
            except Exception as exc:  # noqa: BLE001 - quarantined
                error = f"{type(exc).__name__}: {exc}"
                results[index] = PointResult.failed(point, tier, error)
                if journal is not None:
                    journal.failure(tier, index, point, error)
                continue
            if cache is not None:
                cache.store(point, tier, result)
            results[index] = result
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
    cancel: "threading.Event | None" = None,
) -> CampaignResult:
    """Run one campaign through the evaluation ladder.

    Parameters
    ----------
    spec:
        The sweep definition.
    workers:
        Supervised-pool width for the closed-form grid sweep. The grid
        tier runs under supervision even at ``workers=1``; promoted
        tiers run in-process either way (their point counts are bounded
        by ``max_survivors``/``max_cosim``).
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
        Points per pool batch (amortizes dispatch overhead).
    retry:
        The :class:`~repro.dse.pool.RetryPolicy` of the supervised pool
        (max retries, per-batch deadline, backoff); defaults are
        production-safe.
    resume:
        Resume a killed or interrupted run of this same spec from its
        checkpoint journal: completed points are pure cache hits,
        journaled quarantines are restored, only unpriced points are
        dispatched. Requires a disk-backed ``cache``.
    cancel:
        A :class:`threading.Event`; once set, the campaign tears its
        pool down and raises
        :class:`~repro.errors.CampaignCancelled`.

    Raises
    ------
    DSEError
        On invalid arguments or an all-infeasible grid.
    CheckpointError
        When ``resume=True`` finds a journal written by a different
        campaign.
    CampaignCancelled
        When ``cancel`` fires before completion.
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
        "cancel": cancel,
    }
    try:
        points, skipped = spec.expand()
        closed = _evaluate_tier(
            points, "closed-form", cache, workers, chunk_size, **tier_kwargs
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
            promoted, "exact", cache, 1, chunk_size, **tier_kwargs
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
            promoted, "cosim", cache, 1, chunk_size, cosim_options,
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


class CampaignExecutor:
    """Asynchronous batch front-end over :func:`run_campaign`.

    Each submitted campaign runs on its own daemon thread (which may in
    turn own a process pool); jobs are addressed by the returned id and
    support deadlines (``timeout=``) and cooperative cancellation
    (:meth:`cancel`).
    """

    def __init__(self) -> None:
        self._jobs: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._counter = 0

    def submit(
        self,
        spec: CampaignSpec,
        *,
        timeout: float | None = None,
        **options,
    ) -> str:
        """Start a campaign in the background; returns its job id.

        ``timeout`` is a job deadline in seconds: a campaign still
        running when it expires is cancelled and polls ``"failed"``
        with a deadline error. Remaining ``options`` are forwarded to
        :func:`run_campaign`.
        """
        if timeout is not None and timeout <= 0:
            raise DSEError("job timeout must be positive (or None)")
        with self._lock:
            self._counter += 1
            job_id = f"{spec.name}-{self._counter}"
            job: dict = {
                "result": None,
                "error": None,
                "cancel": threading.Event(),
                "cancelled": False,
                "timed_out": False,
                "timer": None,
            }
            self._jobs[job_id] = job

        def runner() -> None:
            try:
                job["result"] = run_campaign(
                    spec, cancel=job["cancel"], **options
                )
            except CampaignCancelled as exc:
                if job["timed_out"]:
                    job["error"] = DSEError(
                        f"campaign job {job_id!r} exceeded its "
                        f"{timeout}s deadline"
                    )
                else:
                    job["error"] = exc
            except BaseException as exc:  # noqa: BLE001 - reported at collect
                job["error"] = exc
            finally:
                timer = job["timer"]
                if timer is not None:
                    timer.cancel()

        thread = threading.Thread(
            target=runner, name=f"dse-{job_id}", daemon=True
        )
        job["thread"] = thread
        if timeout is not None:

            def expire() -> None:
                job["timed_out"] = True
                job["cancel"].set()

            timer = threading.Timer(timeout, expire)
            timer.daemon = True
            job["timer"] = timer
            timer.start()
        thread.start()
        return job_id

    def _job(self, job_id: str) -> dict:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise DSEError(f"unknown campaign job {job_id!r}") from None

    def cancel(self, job_id: str) -> None:
        """Request cooperative cancellation of a running campaign.

        Idempotent; a finished job is unaffected. A cancelled job polls
        ``"cancelled"`` and :meth:`collect` re-raises its
        :class:`~repro.errors.CampaignCancelled`.
        """
        job = self._job(job_id)
        job["cancelled"] = True
        job["cancel"].set()

    def poll(self, job_id: str) -> str:
        """``"running"``, ``"done"``, ``"failed"``, or ``"cancelled"``."""
        job = self._job(job_id)
        if job["thread"].is_alive():
            return "running"
        if job["error"] is None:
            return "done"
        if isinstance(job["error"], CampaignCancelled):
            return "cancelled"
        return "failed"

    def collect(self, job_id: str, timeout: float | None = None):
        """Wait for a campaign and return its :class:`CampaignResult`.

        Re-raises the campaign's exception if it failed (including the
        deadline :class:`~repro.errors.DSEError` of a timed-out job and
        the :class:`~repro.errors.CampaignCancelled` of a cancelled
        one); raises :class:`~repro.errors.DSEError` if it is still
        running after ``timeout`` seconds.
        """
        job = self._job(job_id)
        job["thread"].join(timeout)
        if job["thread"].is_alive():
            raise DSEError(
                f"campaign job {job_id!r} still running after {timeout}s"
            )
        if job["error"] is not None:
            raise job["error"]
        return job["result"]

    def jobs(self) -> list[str]:
        """Ids of every submitted job, in submission order."""
        return list(self._jobs)
