"""Tier agreement: closed form vs exact schedule solve vs co-simulation."""

import dataclasses
import itertools
import pickle
import random

import pytest

from repro.accel.designs import proposed_design, vitis_baseline_design
from repro.accel.multi_cu import max_compute_units
from repro.dse import tiers
from repro.dse.campaign import DesignPoint
from repro.dse.tiers import (
    RESULT_FIELDS,
    TIER_AGREEMENT_BOUNDS,
    PointResult,
    design_for,
    evaluate_closed_form,
    evaluate_cosim,
    evaluate_exact,
    evaluate_point,
    tier_agreement,
)
from repro.errors import DSEError
from repro.fpga.device import DEVICE_REGISTRY

#: Sampled sub-grid spanning both cases, both devices, orders, CU
#: counts, and block sizes — small enough for tier-1, wide enough to
#: exercise every code path of all three evaluators.
SAMPLED_POINTS = [
    DesignPoint(polynomial_order=2, elements_per_direction=2),
    DesignPoint(polynomial_order=3, elements_per_direction=2, block_size=2),
    DesignPoint(polynomial_order=2, elements_per_direction=3, num_cus=2),
    DesignPoint(
        polynomial_order=2,
        elements_per_direction=2,
        num_cus=4,
        device="hbm",
        partition="contiguous",
    ),
    DesignPoint(polynomial_order=2, elements_per_direction=2, case="channel"),
    DesignPoint(
        polynomial_order=2,
        elements_per_direction=2,
        block_size=4,
        num_cus=2,
        case="channel",
        fusion="none",
    ),
]


@pytest.mark.parametrize(
    "point", SAMPLED_POINTS, ids=lambda p: f"p{p.polynomial_order}-"
    f"epd{p.elements_per_direction}-b{p.block_size}-n{p.num_cus}-"
    f"{p.device}-{p.case}"
)
def test_closed_form_vs_exact_within_bound(point):
    closed = evaluate_closed_form(point)
    exact = evaluate_exact(point)
    assert tier_agreement(closed, exact) < TIER_AGREEMENT_BOUNDS["exact"]


@pytest.mark.parametrize(
    "point",
    [SAMPLED_POINTS[0], SAMPLED_POINTS[2], SAMPLED_POINTS[4]],
    ids=["tgv", "tgv-2cu", "channel"],
)
def test_exact_vs_cosim_within_bound(point):
    exact = evaluate_exact(point)
    cosim = evaluate_cosim(point)
    assert tier_agreement(exact, cosim) < TIER_AGREEMENT_BOUNDS["cosim"]
    # The co-simulated step computed real physics while it was priced.
    assert cosim.state_max_rel_err is not None
    assert cosim.state_max_rel_err < 1e-12


def test_exact_rkl_matches_cosim_windows_exactly():
    """The payload-free schedule solve prices the very graphs the
    payload-carrying run executes: same RKL and RKU cycles, exactly."""
    point = DesignPoint(polynomial_order=2, elements_per_direction=2, num_cus=2)
    exact = evaluate_exact(point)
    cosim = evaluate_cosim(point)
    assert exact.rkl_stage_cycles == cosim.rkl_stage_cycles
    assert exact.rku_step_cycles == cosim.rku_step_cycles


def test_fusion_mode_does_not_move_timing():
    """Role-group sums are fusion-invariant, so every fusion mode prices
    identically at the closed-form AND exact tiers (the axis still
    matters for cache identity)."""
    for evaluate in (evaluate_closed_form, evaluate_exact):
        cycles = {
            fusion: evaluate(
                DesignPoint(elements_per_direction=2, fusion=fusion)
            ).step_cycles
            for fusion in ("none", "gather", "full")
        }
        assert len(set(cycles.values())) == 1, cycles


def test_multi_cu_shortens_the_stage():
    one = evaluate_closed_form(DesignPoint(elements_per_direction=3))
    two = evaluate_closed_form(
        DesignPoint(elements_per_direction=3, num_cus=2)
    )
    assert two.rkl_stage_cycles < one.rkl_stage_cycles
    # RKU is the unsharded Amdahl term.
    assert two.rku_step_cycles == one.rku_step_cycles
    # Replicated compute units cost fabric.
    assert two.lut > one.lut and two.dsp > one.dsp


def test_evaluate_point_dispatch_and_errors():
    point = DesignPoint(elements_per_direction=2)
    result = evaluate_point(point, "closed-form")
    assert result.tier == "closed-form"
    with pytest.raises(DSEError, match="unknown tier"):
        evaluate_point(point, "rtl")
    infeasible = DesignPoint(num_cus=4, device="u200")
    with pytest.raises(DSEError, match="infeasible"):
        evaluate_point(infeasible, "closed-form")


def test_design_cache_reuses_builds():
    a = design_for(DesignPoint(polynomial_order=2, block_size=4))
    b = design_for(DesignPoint(polynomial_order=2, num_cus=2, num_steps=3))
    assert a is b  # same (order, device) key
    c = design_for(DesignPoint(polynomial_order=2, device="hbm"))
    assert c is not a


def test_run_seconds_scales_with_steps():
    one = evaluate_closed_form(DesignPoint(num_steps=1))
    three = evaluate_closed_form(dataclasses.replace(one.point, num_steps=3))
    assert three.step_cycles == one.step_cycles
    assert three.run_seconds == pytest.approx(3 * one.run_seconds)


def _spy_on_fast_many_kernels(monkeypatch):
    """Count calls to the fast backend's batched ``_many`` kernels."""
    from repro.backend.fast import FastBackend

    calls = {"physical_gradient_many": 0, "weak_divergence_many": 0}
    for kernel in calls:
        original = getattr(FastBackend, kernel)

        def spy(self, *args, _orig=original, _kernel=kernel, **kwargs):
            calls[_kernel] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(FastBackend, kernel, spy)
    return calls


def test_cosim_tier_routes_to_the_requested_backend(monkeypatch):
    """Regression: the cosim rung must pass its backend through to the
    payload execution — it used to inherit the module default, so the
    streamed ``_many`` kernels never hit the selected backend's batched
    forms no matter what the campaign asked for."""
    calls = _spy_on_fast_many_kernels(monkeypatch)
    point = DesignPoint(polynomial_order=2, elements_per_direction=2)
    result = evaluate_point(point, "cosim", backend="fast", verify=False)
    assert result.tier == "cosim"
    assert calls["physical_gradient_many"] > 0
    assert calls["weak_divergence_many"] > 0


def test_cosim_tier_default_backend_stays_reference(monkeypatch):
    calls = _spy_on_fast_many_kernels(monkeypatch)
    point = DesignPoint(polynomial_order=2, elements_per_direction=2)
    evaluate_cosim(point, verify=False)
    assert calls["physical_gradient_many"] == 0
    assert calls["weak_divergence_many"] == 0


def test_cosim_tier_verify_switch_controls_the_error_field():
    point = DesignPoint(polynomial_order=2, elements_per_direction=2)
    fast = evaluate_point(point, "cosim", verify=False)
    assert fast.state_max_rel_err is None
    checked = evaluate_point(point, "cosim", verify=True)
    assert checked.state_max_rel_err is not None
    # The skipped check changes nothing the tiers price.
    assert fast.step_cycles == checked.step_cycles
    assert fast.rkl_stage_cycles == checked.rkl_stage_cycles
    assert fast.rku_step_cycles == checked.rku_step_cycles


def test_timing_tiers_ignore_cosim_options():
    point = DesignPoint(elements_per_direction=2)
    default = evaluate_point(point, "closed-form")
    routed = evaluate_point(
        point, "closed-form", backend="fast", verify=False
    )
    assert routed == default


#: Every pricing input of the timing tiers crossed, small meshes only:
#: order, elements, block, CUs, device, fusion, partition, steps,
#: precision and case.
MEMO_GRID = [
    point
    for point in (
        DesignPoint(*values)
        for values in itertools.product(
            (1, 2),
            (2, 3),
            (1, 4),
            (1, 2, 3),
            ("u200", "hbm"),
            ("none", "full"),
            ("balanced", "contiguous"),
            (1, 2),
            ("tgv", "channel"),
            ("float64", "float32"),
        )
    )
    if point.infeasibility() is None
]


@pytest.mark.parametrize("tier", ["closed-form", "exact"])
def test_price_tables_key_every_input(tier, monkeypatch):
    """A design's price table serves every point the same result as a
    freshly built design, whatever order filled it — which fails if a
    table key leaves out an input the priced value depends on."""
    warm = [evaluate_point(point, tier).to_dict() for point in MEMO_GRID]
    shuffled = random.Random(22).sample(range(len(MEMO_GRID)), len(MEMO_GRID))
    again = {i: evaluate_point(MEMO_GRID[i], tier).to_dict() for i in shuffled}
    for i, point in enumerate(MEMO_GRID):
        monkeypatch.setattr(tiers, "_DESIGN_CACHE", {})
        fresh = evaluate_point(point, tier).to_dict()
        assert again[i] == warm[i] == fresh


def test_memo_filled_closed_form_results_are_built_results():
    """A closed-form result filled from its price-table columns is the
    ``PointResult(...)``-built one, whichever pricing-mate filled the
    table first."""
    for point in MEMO_GRID[:48]:
        filled = evaluate_closed_form(point)
        built = PointResult(
            point, *(getattr(filled, name) for name in RESULT_FIELDS)
        )
        back = pickle.loads(pickle.dumps(filled))
        for same in (filled, back):
            assert same == built
            assert hash(same) == hash(built)
            assert repr(same) == repr(built)
            assert same.to_dict() == built.to_dict()
        assert vars(back) == vars(built)


def test_failed_result_is_the_keyword_built_one():
    point = MEMO_GRID[0]
    zeros = dict.fromkeys(
        ("step_cycles", "rkl_stage_cycles", "rku_step_cycles", "clock_mhz",
         "step_seconds", "run_seconds", "lut", "ff", "bram36", "uram", "dsp"),
        0.0,
    )
    built = PointResult(
        point=point, tier="exact", num_nodes=point.num_nodes,
        num_elements=point.num_elements, status="failed", error="boom",
        **zeros,
    )
    failed = PointResult.failed(point, "exact", "boom")
    assert failed == built
    assert repr(failed) == repr(built)
    assert list(vars(failed).items()) == list(vars(built).items())


@pytest.mark.parametrize("build", [proposed_design, vitis_baseline_design])
@pytest.mark.parametrize("device", sorted(DEVICE_REGISTRY))
def test_floorplan_and_clock_tables_match_fresh_designs(build, device):
    board = DEVICE_REGISTRY[device]
    counts = range(1, max_compute_units(board) + 1)
    warm = build(board)
    for num_cus in reversed(counts):  # fill the table out of order
        warm.clock_for(num_cus)
    for num_cus in counts:
        fresh = build(board)
        assert warm.floorplan_for(num_cus) == fresh.floorplan_for(num_cus)
        assert warm.clock_for(num_cus) == fresh.clock_for(num_cus)
