"""Campaign execution: the ladder, the pool, the cache, the async API."""

import dataclasses
import time

import pytest

from repro.dse import (
    CampaignExecutor,
    CampaignSpec,
    DesignPoint,
    ResultCache,
    RetryPolicy,
    run_campaign,
)
from repro.errors import CampaignCancelled, DSEError
from repro.testing import FaultSpec, injected_faults

SPEC = CampaignSpec(
    name="exec-test",
    axes=(
        ("elements_per_direction", (2, 3)),
        ("block_size", (1, 2)),
        ("num_cus", (1, 2, 4)),
        ("device", ("u200", "hbm")),
    ),
    max_survivors=4,
    max_cosim=2,
)


def test_closed_form_campaign_covers_the_grid():
    result = run_campaign(SPEC, highest_tier="closed-form")
    points, skipped = SPEC.expand()
    assert [r.point for r in result.results] == points
    assert result.skipped == skipped
    assert result.num_grid_points == len(points) + len(skipped)
    assert result.front
    assert result.survivors == [] and result.cosim == []
    assert all(r.tier == "closed-form" for r in result.results)


def test_full_ladder_promotes_and_agrees():
    result = run_campaign(SPEC, highest_tier="cosim")
    assert 0 < len(result.survivors) <= SPEC.max_survivors
    assert 0 < len(result.cosim) <= SPEC.max_cosim
    assert all(r.tier == "exact" for r in result.survivors)
    assert all(r.tier == "cosim" for r in result.cosim)
    assert len(result.agreement) == len(result.survivors) + len(result.cosim)
    assert result.violations == []
    # Survivors are front members; finalists are survivors.
    front_points = {r.point for r in result.front}
    assert all(r.point in front_points for r in result.survivors)
    survivor_points = {r.point for r in result.survivors}
    assert all(r.point in survivor_points for r in result.cosim)


def test_parallel_merge_is_deterministic():
    serial = run_campaign(SPEC, workers=1, highest_tier="closed-form")
    pooled = run_campaign(
        SPEC, workers=2, chunk_size=5, highest_tier="closed-form"
    )
    assert [r.point for r in pooled.results] == [
        r.point for r in serial.results
    ]
    assert [r.step_cycles for r in pooled.results] == [
        r.step_cycles for r in serial.results
    ]
    assert [r.point for r in pooled.front] == [r.point for r in serial.front]


def test_warm_cache_serves_everything(tmp_path):
    cold_cache = ResultCache(tmp_path)
    cold = run_campaign(SPEC, cache=cold_cache, highest_tier="exact")
    assert cold_cache.stats.hits == 0
    assert cold_cache.stats.misses > 0

    warm_cache = ResultCache(tmp_path)
    warm = run_campaign(SPEC, cache=warm_cache, highest_tier="exact")
    assert warm_cache.stats.misses == 0
    assert warm_cache.stats.hit_rate == 1.0
    assert all(r.from_cache for r in warm.results)
    assert all(r.from_cache for r in warm.survivors)
    assert [r.step_cycles for r in warm.results] == [
        r.step_cycles for r in cold.results
    ]
    assert warm.to_dict()["pareto_front"] == cold.to_dict()["pareto_front"]


def test_pool_workers_persist_to_shared_cache(tmp_path):
    cache = ResultCache(tmp_path)
    result = run_campaign(
        SPEC, workers=2, cache=cache, highest_tier="closed-form"
    )
    # Every priced point landed on disk (written by the pool workers),
    # so a fresh instance sees a fully warm cache.
    fresh = ResultCache(tmp_path)
    warm = run_campaign(SPEC, cache=fresh, highest_tier="closed-form")
    assert fresh.stats.misses == 0
    assert [r.step_cycles for r in warm.results] == [
        r.step_cycles for r in result.results
    ]


def test_one_segment_per_pool_batch(tmp_path):
    """A pool batch is the unit of persistence: one segment file per
    batch, one record per priced point."""
    chunk = 5
    result = run_campaign(
        SPEC, workers=2, cache=ResultCache(tmp_path),
        highest_tier="closed-form", chunk_size=chunk,
    )
    segments = list(tmp_path.glob("*.seg"))
    assert len(segments) == -(-len(result.results) // chunk)
    assert sum(
        len(seg.read_text().splitlines()) for seg in segments
    ) == len(result.results)


def test_campaign_result_to_dict_is_json_ready(tmp_path):
    import json

    cache = ResultCache(tmp_path)
    result = run_campaign(SPEC, cache=cache, highest_tier="cosim")
    payload = json.dumps(result.to_dict())
    assert "pareto_front" in payload
    assert result.to_dict()["cache"]["misses"] == cache.stats.misses


def test_campaign_backend_and_verify_configure_the_cosim_tier(monkeypatch):
    """A campaign's ``backend`` reaches the finalists' payload kernels
    and its ``cosim_verify`` (off by default) skips the checking solve
    without moving any priced cycle."""
    from repro.backend.fast import FastBackend

    calls = {"weak_divergence_many": 0}
    original = FastBackend.weak_divergence_many

    def spy(self, *args, **kwargs):
        calls["weak_divergence_many"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FastBackend, "weak_divergence_many", spy)

    spec = dataclasses.replace(SPEC, name="exec-fast", backend="fast")
    routed = run_campaign(spec, highest_tier="cosim")
    assert calls["weak_divergence_many"] > 0
    assert routed.violations == []
    assert all(r.state_max_rel_err is None for r in routed.cosim)

    baseline = run_campaign(SPEC, highest_tier="cosim")
    assert [r.step_cycles for r in routed.cosim] == [
        r.step_cycles for r in baseline.cosim
    ]

    payload = spec.spec()
    assert payload["backend"] == "fast"
    assert payload["cosim_verify"] is False


def test_campaign_verify_on_records_the_state_error():
    spec = dataclasses.replace(
        SPEC, name="exec-verified", max_cosim=1, cosim_verify=True
    )
    result = run_campaign(spec, highest_tier="cosim")
    assert result.violations == []
    for cosim in result.cosim:
        assert cosim.state_max_rel_err is not None
        assert cosim.state_max_rel_err < 1e-12


def test_campaign_rejects_unknown_backend():
    with pytest.raises(DSEError, match="unknown campaign backend"):
        CampaignSpec(
            name="bad-backend",
            axes=(("num_cus", (1,)),),
            backend="gpu",
        )


def test_invalid_arguments():
    with pytest.raises(DSEError):
        run_campaign(SPEC, workers=0)
    with pytest.raises(DSEError):
        run_campaign(SPEC, chunk_size=0)
    with pytest.raises(DSEError):
        run_campaign(SPEC, highest_tier="rtl")


def test_async_submit_poll_collect():
    executor = CampaignExecutor()
    jobs = [
        executor.submit(SPEC, highest_tier="closed-form") for _ in range(2)
    ]
    assert executor.jobs() == jobs
    results = [executor.collect(job, timeout=120) for job in jobs]
    for job in jobs:
        assert executor.poll(job) == "done"
    assert [r.step_cycles for r in results[0].results] == [
        r.step_cycles for r in results[1].results
    ]


def test_async_failure_is_reported_and_reraised():
    executor = CampaignExecutor()
    bad = CampaignSpec(
        name="bad",
        axes=(("num_cus", (3, 4)),),
        base=DesignPoint(device="u200"),
    )
    job = executor.submit(bad)
    with pytest.raises(DSEError, match="no feasible points"):
        executor.collect(job, timeout=60)
    assert executor.poll(job) == "failed"
    with pytest.raises(DSEError, match="unknown campaign job"):
        executor.poll("nope-1")


#: A spec whose grid tier wedges on an injected worker hang (installed
#: per-test): the campaign stays "running" until cancelled / timed out.
_STUCK = CampaignSpec(
    name="stuck",
    axes=(("block_size", (1, 2, 4, 8)),),
    base=DesignPoint(num_steps=10),
)
_STUCK_RETRY = RetryPolicy(
    max_retries=0, batch_timeout=120.0, backoff_base=0.01
)


def _hang_plan():
    return FaultSpec(
        site="dse.worker", kind="hang", hang_seconds=60.0, times=0
    )


def test_async_cancel_mid_campaign():
    """cancel() interrupts a wedged campaign within the supervision
    poll interval: poll says "cancelled", collect re-raises."""
    executor = CampaignExecutor()
    with injected_faults(_hang_plan()):
        start = time.monotonic()
        job = executor.submit(
            _STUCK, workers=2, highest_tier="closed-form",
            retry=_STUCK_RETRY,
        )
        assert executor.poll(job) == "running"
        executor.cancel(job)
        with pytest.raises(CampaignCancelled):
            executor.collect(job, timeout=30)
        elapsed = time.monotonic() - start
    assert executor.poll(job) == "cancelled"
    assert elapsed < 30.0, "cancel must not wait out the 60s hang"
    executor.cancel(job)  # idempotent on a finished job
    assert executor.poll(job) == "cancelled"


def test_async_job_deadline_fails_the_job():
    """A campaign still wedged at its deadline is cancelled by the
    timer and reported as a *failure* (deadline DSEError), not as a
    user cancellation."""
    executor = CampaignExecutor()
    with injected_faults(_hang_plan()):
        job = executor.submit(
            _STUCK, workers=2, highest_tier="closed-form",
            retry=_STUCK_RETRY, timeout=1.5,
        )
        with pytest.raises(DSEError, match="deadline"):
            executor.collect(job, timeout=30)
    assert executor.poll(job) == "failed"


def test_async_deadline_noop_on_fast_job():
    executor = CampaignExecutor()
    job = executor.submit(SPEC, highest_tier="closed-form", timeout=120)
    result = executor.collect(job, timeout=120)
    assert executor.poll(job) == "done"
    assert result.front


def test_async_timeout_validation():
    executor = CampaignExecutor()
    with pytest.raises(DSEError, match="timeout must be positive"):
        executor.submit(SPEC, timeout=0)
    with pytest.raises(DSEError, match="timeout must be positive"):
        executor.submit(SPEC, timeout=-2.0)
