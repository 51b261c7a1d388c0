"""Design-space-exploration campaign: cache speedup and parallel sweeps (PR 6).

Runs a paper-scale campaign (~1000 grid points across polynomial order,
mesh size, block size, CU count, device, fusion, partition, and step
count) through the full tiered ladder of :func:`repro.dse.run_campaign`:
closed-form pricing of every feasible point, an exact schedule solve of
the Pareto survivors, and payload-carrying co-simulation of the
finalists. Three performance properties are enforced as floors, not
just recorded:

* **Cache speedup** — re-running the identical campaign against the
  populated content-addressed cache must be at least ``MIN_WARM_SPEEDUP``
  faster and serve at least ``MIN_WARM_HIT_RATE`` of lookups from cache.
* **Parallel speedup** — the supervised pool with 4 workers must price
  the closed-form grid ``MIN_PARALLEL_SPEEDUP`` faster than with one
  (only checked on machines with >= 4 CPUs; CI runners qualify).
* **Tier agreement** — no promoted point may violate the ladder's
  agreement bounds (closed-form vs exact < 2%, exact vs cosim < 5%).

The headline numbers and the campaign's Pareto front are written to
``BENCH_pr6.json`` and uploaded as a CI artifact for trend tracking.

Run with ``python -m pytest benchmarks/test_dse_campaign.py -v -s``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.dse import (
    CampaignSpec,
    ResultCache,
    SupervisedPool,
    prewarm_designs,
    run_campaign,
)

#: The campaign grid: 1152 raw points, 960 feasible (the U200 cannot
#: host 4 memory-attached compute units). Must stay >= MIN_GRID_POINTS.
CAMPAIGN = CampaignSpec(
    name="bench-pr6",
    axes=(
        ("polynomial_order", (2, 3)),
        ("elements_per_direction", (2, 3)),
        ("block_size", (1, 2, 4, 8)),
        ("num_cus", (1, 2, 4)),
        ("device", ("u200", "hbm")),
        ("fusion", ("none", "gather", "full")),
        ("partition", ("balanced", "contiguous")),
        ("num_steps", (1, 2)),
    ),
    max_survivors=16,
    max_cosim=8,
    # The ladder test asserts every cosim finalist reports its streamed
    # state error, which only the checked co-simulation records.
    cosim_verify=True,
)

MIN_GRID_POINTS = 500
MIN_WARM_SPEEDUP = 10.0
MIN_WARM_HIT_RATE = 0.95
MIN_PARALLEL_SPEEDUP = 1.5
PARALLEL_WORKERS = 4

#: Perf-trajectory artifact consumed by CI.
ARTIFACT_PATH = Path(__file__).resolve().parent / "BENCH_pr6.json"


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Cold full-ladder run against an empty on-disk cache, then the
    identical warm run against the populated cache."""
    cache_dir = tmp_path_factory.mktemp("dse-cache")

    cold_cache = ResultCache(cache_dir)
    start = time.perf_counter()
    cold = run_campaign(CAMPAIGN, cache=cold_cache, highest_tier="cosim")
    cold_seconds = time.perf_counter() - start

    warm_cache = ResultCache(cache_dir)
    start = time.perf_counter()
    warm = run_campaign(CAMPAIGN, cache=warm_cache, highest_tier="cosim")
    warm_seconds = time.perf_counter() - start

    return {
        "cold": cold,
        "cold_cache": cold_cache,
        "cold_seconds": cold_seconds,
        "warm": warm,
        "warm_cache": warm_cache,
        "warm_seconds": warm_seconds,
    }


@pytest.fixture(scope="module")
def parallel_seconds():
    """The supervised pool at 1 vs ``PARALLEL_WORKERS`` workers over the
    campaign's closed-form grid in 32-point batches.

    Campaigns price the grid in the parent and run only their cosim
    tier on the pool, so the floor times the pool itself. Designs are
    prewarmed first so both timings measure sweep execution, not the
    shared one-off design builds."""
    points = CAMPAIGN.expand()[0]
    prewarm_designs(points)
    items = list(enumerate(points))
    batches = [items[start : start + 32] for start in range(0, len(items), 32)]
    timings = {}
    for workers in (1, PARALLEL_WORKERS):
        start = time.perf_counter()
        with SupervisedPool(workers) as pool:
            priced, failures = pool.run("closed-form", batches)
        timings[workers] = time.perf_counter() - start
        assert len(priced) == len(points) and not failures
    return timings


def test_campaign_reaches_paper_scale(campaign):
    cold = campaign["cold"]
    assert cold.num_grid_points >= MIN_GRID_POINTS
    assert len(cold.results) >= MIN_GRID_POINTS
    print()
    print(
        f"campaign {CAMPAIGN.name}: {cold.num_grid_points} grid points, "
        f"{len(cold.results)} feasible, {len(cold.skipped)} skipped"
    )
    print(
        f"front {len(cold.front)} | exact survivors {len(cold.survivors)} "
        f"| cosim finalists {len(cold.cosim)}"
    )


def test_ladder_promoted_to_cosim(campaign):
    """The campaign must climb the whole ladder: the Pareto survivors
    are re-priced by the exact schedule solve and the finalists by the
    payload-carrying co-simulation."""
    cold = campaign["cold"]
    assert 0 < len(cold.survivors) <= CAMPAIGN.max_survivors
    assert 0 < len(cold.cosim) <= CAMPAIGN.max_cosim
    for result in cold.cosim:
        assert result.state_max_rel_err is not None
        assert result.state_max_rel_err < 1e-12


def test_tier_agreement_has_no_violations(campaign):
    cold = campaign["cold"]
    assert cold.agreement, "ladder recorded no agreement checks"
    assert cold.violations == []
    worst = max(check.relative_error for check in cold.agreement)
    print(f"worst tier agreement: {100 * worst:.3f}%")


def test_warm_cache_floors(campaign):
    """The populated cache must serve (nearly) everything and beat the
    cold run by the speedup floor."""
    warm_cache = campaign["warm_cache"]
    speedup = campaign["cold_seconds"] / campaign["warm_seconds"]
    print(
        f"cold {campaign['cold_seconds']:.2f}s -> warm "
        f"{campaign['warm_seconds']:.2f}s ({speedup:.1f}x, "
        f"hit rate {warm_cache.stats.hit_rate:.3f})"
    )
    assert warm_cache.stats.hit_rate >= MIN_WARM_HIT_RATE
    assert speedup >= MIN_WARM_SPEEDUP
    assert all(r.from_cache for r in campaign["warm"].results)


def test_warm_results_match_cold(campaign):
    cold, warm = campaign["cold"], campaign["warm"]
    assert [r.step_cycles for r in warm.results] == [
        r.step_cycles for r in cold.results
    ]
    assert warm.to_dict()["pareto_front"] == cold.to_dict()["pareto_front"]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < PARALLEL_WORKERS,
    reason=f"parallel floor needs >= {PARALLEL_WORKERS} CPUs",
)
def test_parallel_sweep_floor(parallel_seconds):
    speedup = parallel_seconds[1] / parallel_seconds[PARALLEL_WORKERS]
    print(
        f"pooled closed-form sweep: 1 worker {parallel_seconds[1]:.2f}s -> "
        f"{PARALLEL_WORKERS} workers "
        f"{parallel_seconds[PARALLEL_WORKERS]:.2f}s ({speedup:.2f}x)"
    )
    assert speedup >= MIN_PARALLEL_SPEEDUP


def test_artifact_written(campaign, request):
    cold = campaign["cold"]
    parallel = None
    if (os.cpu_count() or 1) >= PARALLEL_WORKERS:
        parallel = request.getfixturevalue("parallel_seconds")
    payload = {
        "benchmark": "dse_campaign",
        "campaign": cold.to_dict(),
        "cold_seconds": campaign["cold_seconds"],
        "warm_seconds": campaign["warm_seconds"],
        "warm_speedup": campaign["cold_seconds"] / campaign["warm_seconds"],
        "warm_hit_rate": campaign["warm_cache"].stats.hit_rate,
        "parallel": (
            None
            if parallel is None
            else {
                "workers": PARALLEL_WORKERS,
                "serial_seconds": parallel[1],
                "pooled_seconds": parallel[PARALLEL_WORKERS],
                "speedup": parallel[1] / parallel[PARALLEL_WORKERS],
            }
        ),
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    written = json.loads(ARTIFACT_PATH.read_text())
    assert written["campaign"]["pareto_front"]
    assert written["campaign"]["num_feasible"] >= MIN_GRID_POINTS
