"""Multi-CU scaling extension."""

import pytest

from repro.accel.multi_cu import (
    MAX_COMPUTE_UNITS,
    max_compute_units,
    multi_cu_floorplan,
    multi_cu_timing,
    multi_cu_timing_from_cosim,
    render_scaling_table,
    scaling_table,
)
from repro.errors import ExperimentError
from repro.fpga.device import ALVEO_U200, FPGADevice


def hbm_class_device(num_slrs: int = 4) -> FPGADevice:
    """A synthetic HBM-class board: every SLR memory-attached."""
    slr = ALVEO_U200.slrs[0]
    return FPGADevice(
        name=f"hbm-class-{num_slrs}slr",
        slrs=tuple(
            slr.__class__(
                name=f"SLR{i}",
                resources=slr.resources,
                has_ddr_attach=True,
            )
            for i in range(num_slrs)
        ),
        num_ddr_channels=8 * num_slrs,
        ddr_capacity_gib_per_channel=2,
        sll_crossing_latency_cycles=4,
        max_kernel_clock_mhz=300.0,
        max_axi_interfaces_per_kernel=16,
    )


class TestFloorplan:
    def test_two_cus_use_both_ddr_slrs(self, proposed):
        plan = multi_cu_floorplan(proposed, 2)
        assert plan.assignments["rkl0"] == "SLR0"
        assert plan.assignments["rkl1"] == "SLR2"
        assert plan.assignments["rku"] == "SLR1"

    def test_cu_count_bounds(self, proposed):
        with pytest.raises(ExperimentError):
            multi_cu_floorplan(proposed, 0)
        with pytest.raises(ExperimentError):
            multi_cu_floorplan(proposed, MAX_COMPUTE_UNITS + 1)

    def test_clock_preserved_with_two_cus(self, proposed):
        """One kernel per SLR: no packing penalty, 150 MHz holds."""
        timing = multi_cu_timing(2, 4_200_000, proposed)
        assert timing.clock_mhz == pytest.approx(150.0)


class TestDeviceModelBound:
    """Satellite: the CU ceiling is a property of the device model
    (memory-attached SLR count), not a hard-coded constant — U200
    behavior is unchanged while HBM-class N > 2 configs unblock."""

    def test_u200_bound_unchanged(self):
        assert max_compute_units() == 2
        assert max_compute_units(ALVEO_U200) == 2
        assert MAX_COMPUTE_UNITS == 2

    def test_hbm_class_admits_more_cus(self):
        assert max_compute_units(hbm_class_device(4)) == 4

    def test_three_cu_floorplan_on_hbm_device(self, proposed):
        device = hbm_class_device(4)
        plan = multi_cu_floorplan(proposed, 3, device)
        assert plan.assignments["rkl0"] == "SLR0"
        assert plan.assignments["rkl1"] == "SLR1"
        assert plan.assignments["rkl2"] == "SLR2"
        # no memory-free SLR: RKU co-locates with the first CU
        assert plan.assignments["rku"] == "SLR0"

    def test_bound_enforced_per_device(self, proposed):
        device = hbm_class_device(3)
        with pytest.raises(ExperimentError):
            multi_cu_floorplan(proposed, 4, device)
        with pytest.raises(ExperimentError):
            multi_cu_floorplan(proposed, 3, ALVEO_U200)

    def test_scaling_table_spans_device_bound(self, proposed):
        device = hbm_class_device(3)
        table = scaling_table(2_100_000, proposed, device)
        assert [t.num_compute_units for t in table] == [1, 2, 3]
        # RKL keeps shrinking with every additional CU
        rkl = [t.rkl_seconds_per_stage for t in table]
        assert rkl[0] > rkl[1] > rkl[2]
        # ...while the unsharded RKU term is constant (Amdahl)
        rku = {round(t.rku_seconds_per_step, 12) for t in table}
        assert len(rku) == 1


class TestScaling:
    def test_second_cu_speeds_up_rkl(self, proposed):
        one = multi_cu_timing(1, 4_200_000, proposed)
        two = multi_cu_timing(2, 4_200_000, proposed)
        ratio = one.rkl_seconds_per_stage / two.rkl_seconds_per_stage
        # slightly superlinear on RKL: halving each CU's footprint also
        # improves its gather row locality
        assert ratio > 1.9

    def test_rku_does_not_scale(self, proposed):
        one = multi_cu_timing(1, 4_200_000, proposed)
        two = multi_cu_timing(2, 4_200_000, proposed)
        assert two.rku_seconds_per_step == pytest.approx(
            one.rku_seconds_per_step
        )

    def test_step_speedup_below_cu_count(self, proposed):
        """Amdahl: the unscaled RKU bounds the end-to-end gain below 2x."""
        table = scaling_table(4_200_000, proposed)
        speedup = table[0].rk_step_seconds / table[1].rk_step_seconds
        assert 1.5 < speedup < 2.2

    def test_single_cu_matches_proposed_design(self, proposed):
        from repro.accel.cosim import design_timing

        single = multi_cu_timing(1, 2_100_000, proposed)
        reference = design_timing(proposed, 2_100_000)
        assert single.rk_step_seconds == pytest.approx(
            reference.rk_step_seconds, rel=0.01
        )

    def test_render(self, proposed):
        text = render_scaling_table(scaling_table(1_400_000, proposed))
        assert "Multi-CU scaling" in text

    def test_invalid_nodes(self, proposed):
        with pytest.raises(ExperimentError):
            multi_cu_timing(1, 0, proposed)


class TestTimingFromCosim:
    """The co-simulated route to the N-CU timing (agreement with the
    closed form is asserted in tests/accel/test_cosim.py, next to the
    co-simulation itself)."""

    def test_rku_and_clock_shared_with_closed_form(self, proposed):
        from repro.accel.cosim import cosimulate_rk_stage
        from repro.mesh.hexmesh import periodic_box_mesh

        mesh = periodic_box_mesh(2, 2)
        result = cosimulate_rk_stage(
            proposed, mesh, num_cus=2, verify=False
        )
        derived = multi_cu_timing_from_cosim(result, proposed)
        analytic = multi_cu_timing(2, mesh.num_nodes, proposed)
        assert derived.num_compute_units == 2
        assert derived.num_nodes == mesh.num_nodes
        assert derived.clock_mhz == pytest.approx(analytic.clock_mhz)
        assert derived.rku_seconds_per_step == pytest.approx(
            analytic.rku_seconds_per_step
        )
