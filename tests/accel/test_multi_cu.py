"""Multi-CU scaling extension: one placement rule, one timing route."""

import pytest

from repro.accel.cosim import (
    cosimulate_rk_stage,
    design_timing,
    design_timing_from_rk_cosim,
)
from repro.accel.designs import (
    PROPOSED_OPTIONS,
    VITIS_BASELINE_OPTIONS,
    custom_design,
    proposed_design,
)
from repro.accel.multi_cu import (
    max_compute_units,
    render_scaling_table,
    scaling_table,
)
from repro.dse.campaign import DesignPoint
from repro.dse.tiers import design_for, evaluate_point
from repro.errors import ExperimentError
from repro.fpga.device import ALVEO_U200, DEVICE_REGISTRY, hbm_class_device
from repro.mesh.hexmesh import periodic_box_mesh

#: Trace-vs-closed-form RKU bound (as in tests/accel/test_rk_step_cosim.py).
RKU_TOL = 0.05


class TestFloorplan:
    def test_two_cus_use_both_ddr_slrs(self, proposed):
        plan = proposed.floorplan_for(2)
        assert plan.assignments["rkl0"] == "SLR0"
        assert plan.assignments["rkl1"] == "SLR2"
        assert plan.assignments["rku"] == "SLR1"

    def test_cu_count_bounds(self, proposed):
        with pytest.raises(ExperimentError):
            proposed.floorplan_for(0)
        with pytest.raises(ExperimentError):
            proposed.floorplan_for(max_compute_units() + 1)

    def test_clock_preserved_with_two_cus(self, proposed):
        """One kernel per SLR: no packing penalty, 150 MHz holds."""
        timing = design_timing(proposed, 4_200_000, num_cus=2)
        assert timing.clock_mhz == pytest.approx(150.0)

    def test_non_split_design_keeps_rku_with_cu0(self, vitis):
        """``split_slrs`` off: RKU shares CU 0's SLR at every CU count,
        so the baseline keeps its packed 100 MHz clock."""
        for num_cus in (1, 2):
            plan = vitis.floorplan_for(num_cus)
            assert plan.assignments["rku"] == plan.assignments["rkl0"]
            timing = design_timing(vitis, 1_400_000, num_cus=num_cus)
            assert timing.clock_mhz == 100.0

    @pytest.mark.parametrize("device", sorted(DEVICE_REGISTRY))
    @pytest.mark.parametrize(
        "options",
        [PROPOSED_OPTIONS, VITIS_BASELINE_OPTIONS],
        ids=lambda options: options.name,
    )
    def test_one_placement_prices_every_clock(self, device, options):
        """A design's own clock, the closed form's and every DSE point's
        come from one placement rule."""
        design = custom_design(options, DEVICE_REGISTRY[device])
        assert design.floorplan.assignments == (
            design.floorplan_for(1).assignments
        )
        assert design.clock_mhz == design_timing(design, 100_000).clock_mhz
        for num_cus in range(1, max_compute_units(design.device) + 1):
            point = DesignPoint(
                device=device, num_cus=num_cus, elements_per_direction=2
            )
            closed = evaluate_point(point, "closed-form")
            timing = design_timing(
                design_for(point), point.num_nodes, num_cus=num_cus
            )
            assert closed.clock_mhz == timing.clock_mhz


class TestDeviceModelBound:
    """Satellite: the CU ceiling is a property of the device model
    (memory-attached SLR count), not a hard-coded constant — U200
    behavior is unchanged while HBM-class N > 2 configs unblock."""

    def test_u200_bound_unchanged(self):
        assert max_compute_units() == 2
        assert max_compute_units(ALVEO_U200) == 2

    def test_hbm_class_admits_more_cus(self):
        assert max_compute_units(hbm_class_device(4)) == 4

    def test_three_cu_floorplan_on_hbm_device(self):
        plan = proposed_design(hbm_class_device(4)).floorplan_for(3)
        assert plan.assignments["rkl0"] == "SLR0"
        assert plan.assignments["rkl1"] == "SLR1"
        assert plan.assignments["rkl2"] == "SLR2"
        # no memory-free SLR: RKU co-locates with the first CU
        assert plan.assignments["rku"] == "SLR0"

    def test_bound_enforced_per_device(self, proposed):
        with pytest.raises(ExperimentError):
            proposed_design(hbm_class_device(3)).floorplan_for(4)
        with pytest.raises(ExperimentError):
            proposed.floorplan_for(3)

    def test_scaling_table_spans_device_bound(self):
        table = scaling_table(2_100_000, proposed_design(hbm_class_device(3)))
        assert [t.num_compute_units for t in table] == [1, 2, 3]
        # RKL keeps shrinking with every additional CU
        rkl = [t.rkl_seconds_per_stage for t in table]
        assert rkl[0] > rkl[1] > rkl[2]
        # ...while the unsharded RKU term is constant (Amdahl)
        rku = {round(t.rku_seconds_per_step, 12) for t in table}
        assert len(rku) == 1


class TestScaling:
    def test_second_cu_speeds_up_rkl(self, proposed):
        one = design_timing(proposed, 4_200_000, num_cus=1)
        two = design_timing(proposed, 4_200_000, num_cus=2)
        ratio = one.rkl_seconds_per_stage / two.rkl_seconds_per_stage
        # slightly superlinear on RKL: halving each CU's footprint also
        # improves its gather row locality
        assert ratio > 1.9

    def test_rku_does_not_scale(self, proposed):
        one = design_timing(proposed, 4_200_000, num_cus=1)
        two = design_timing(proposed, 4_200_000, num_cus=2)
        assert two.rku_seconds_per_step == pytest.approx(
            one.rku_seconds_per_step
        )

    def test_step_speedup_below_cu_count(self, proposed):
        """Amdahl: the unscaled RKU bounds the end-to-end gain below 2x."""
        table = scaling_table(4_200_000, proposed)
        speedup = table[0].rk_step_seconds / table[1].rk_step_seconds
        assert 1.5 < speedup < 2.2

    def test_single_cu_matches_proposed_design(self, proposed):
        single = design_timing(proposed, 2_100_000, num_cus=1)
        assert single == design_timing(proposed, 2_100_000)
        assert single.clock_mhz == proposed.clock_mhz

    def test_render(self, proposed):
        text = render_scaling_table(scaling_table(1_400_000, proposed))
        assert "Multi-CU scaling" in text

    def test_invalid_nodes(self, proposed):
        with pytest.raises(ExperimentError):
            design_timing(proposed, 0, num_cus=1)


class TestTimingFromCosim:
    """The co-simulated route to the N-CU timing (agreement with the
    closed form is asserted in tests/accel/test_cosim.py, next to the
    co-simulation itself)."""

    def test_rku_and_clock_shared_with_closed_form(self, proposed):
        # 216 nodes, the size the RKU bound is set at in
        # test_rk_step_cosim.py (at 64 nodes the fill is 6 % of the chain)
        mesh = periodic_box_mesh(3, 2)
        result = cosimulate_rk_stage(
            proposed, mesh, num_cus=2, verify=False
        )
        derived = design_timing_from_rk_cosim(proposed, result)
        analytic = design_timing(proposed, mesh.num_nodes, num_cus=2)
        assert derived.num_compute_units == 2
        assert derived.num_nodes == mesh.num_nodes
        assert derived.clock_mhz == analytic.clock_mhz
        assert derived.rku_seconds_per_step == pytest.approx(
            analytic.rku_seconds_per_step, rel=RKU_TOL
        )
