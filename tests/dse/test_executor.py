"""Campaign execution: the ladder, the pool, the cache."""

import dataclasses
import multiprocessing

import pytest

from repro.dse import (
    CampaignSpec,
    DesignPoint,
    ResultCache,
    SupervisedPool,
    run_campaign,
)
from repro.dse.cache import cache_key
from repro.errors import DSEError

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


def test_grid_persists_to_shared_cache(tmp_path):
    cache = ResultCache(tmp_path)
    result = run_campaign(
        SPEC, workers=2, cache=cache, highest_tier="closed-form"
    )
    # Every priced point landed on disk, so a fresh instance sees a
    # fully warm cache.
    fresh = ResultCache(tmp_path)
    warm = run_campaign(SPEC, cache=fresh, highest_tier="closed-form")
    assert fresh.stats.misses == 0
    assert [r.step_cycles for r in warm.results] == [
        r.step_cycles for r in result.results
    ]


def test_one_segment_per_grid_chunk(tmp_path):
    """A grid chunk is the unit of persistence: one segment file per
    chunk, one record per priced point."""
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


def test_grid_segments_are_chunked_put_many_segments(tmp_path):
    """The grid's segments are, name for name and byte for byte, those
    of one ``put_many`` per ``chunk_size`` chunk of its results."""
    chunk = 7
    result = run_campaign(
        SPEC, cache=ResultCache(tmp_path / "grid"),
        highest_tier="closed-form", chunk_size=chunk,
    )
    reference = ResultCache(tmp_path / "reference")
    for start in range(0, len(result.results), chunk):
        reference.put_many(
            (cache_key(r.point, r.tier), r)
            for r in result.results[start : start + chunk]
        )

    def segments(directory):
        return {
            path.name: path.read_bytes()
            for path in directory.glob("*.seg")
        }

    written = segments(tmp_path / "grid")
    assert len(written) == -(-len(result.results) // chunk)
    assert written == segments(tmp_path / "reference")


def test_closed_form_campaign_spawns_no_worker(monkeypatch):
    """The grid prices in the parent: no pool worker is ever started,
    at any width."""

    def refuse(self, slot):
        raise AssertionError("a closed-form campaign spawned a worker")

    monkeypatch.setattr(SupervisedPool, "_spawn", refuse)
    for workers in (1, 4):
        result = run_campaign(
            SPEC, workers=workers, highest_tier="closed-form"
        )
        assert len(result.results) == len(SPEC.expand()[0])
        assert result.supervision.dispatched == 0


def test_cosim_tier_dispatches_one_batch_per_point():
    """The cosim tier runs supervised even at workers=1, one batch per
    missing point; the timing tiers dispatch nothing."""
    result = run_campaign(SPEC, workers=1, highest_tier="cosim")
    assert len(result.cosim) == SPEC.max_cosim
    assert result.supervision.dispatched == SPEC.max_cosim
    assert result.supervision.completed == SPEC.max_cosim
    assert not result.failures


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

    # The cosim tier runs in pool workers, which inherit the spy; the
    # count lives in shared memory so the parent sees their calls.
    calls = multiprocessing.Value("i", 0)
    original = FastBackend.weak_divergence_many

    def spy(self, *args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FastBackend, "weak_divergence_many", spy)

    spec = dataclasses.replace(SPEC, name="exec-fast", backend="fast")
    routed = run_campaign(spec, highest_tier="cosim")
    assert calls.value > 0
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
    infeasible = CampaignSpec(
        name="bad",
        axes=(("num_cus", (3, 4)),),
        base=DesignPoint(device="u200"),
    )
    with pytest.raises(DSEError, match="no feasible points"):
        run_campaign(infeasible)
