"""Analytic workload characterization."""

import pytest

from repro.errors import SolverError
from repro.solver.workload import (
    OpCount,
    compute_convection_element,
    compute_diffusion_element,
    full_step_workload,
    load_element,
    rk_stage_workload,
    store_element,
    workload_for_node_count,
)
from repro.timeint.butcher import HEUN2, RK4


class TestOpCount:
    def test_addition(self):
        a = OpCount(adds=1, muls=2, dram_reads=3)
        b = OpCount(adds=10, divs=4)
        c = a + b
        assert c.adds == 11 and c.muls == 2 and c.divs == 4
        assert c.dram_reads == 3

    def test_scaling(self):
        a = OpCount(adds=2, dram_writes=5).scaled(3)
        assert a.adds == 6 and a.dram_writes == 15

    def test_flops_totals_all_classes(self):
        a = OpCount(adds=1, muls=2, divs=3, specials=4)
        assert a.flops == 10
        assert a.dram_values == 0


class TestElementCounts:
    def test_diffusion_heavier_than_convection(self):
        """The paper's hotspot ordering (Fig. 2) requires diffusion to
        dominate convection in per-element flops."""
        diff = compute_diffusion_element(3)
        conv = compute_convection_element(3)
        assert diff.flops > conv.flops
        assert 1.2 < diff.flops / conv.flops < 2.0

    def test_counts_scale_with_order(self):
        f2 = compute_diffusion_element(3).flops
        f3 = compute_diffusion_element(4).flops
        # more nodes per element and longer derivative sums
        assert f3 > f2 * (4 / 3) ** 3

    def test_load_traffic(self):
        ops = load_element(27)
        assert ops.dram_reads == 5 * 27 + 27 + 9
        assert ops.flops == 0

    def test_store_is_read_modify_write(self):
        ops = store_element(27, 5)
        assert ops.dram_reads == ops.dram_writes == 5 * 27
        assert ops.adds == 5 * 27


class TestAggregates:
    def test_stage_workload_scales_with_elements(self):
        one = rk_stage_workload(1, 2)
        many = rk_stage_workload(100, 2)
        assert many["rk_diffusion"].flops == pytest.approx(
            100 * one["rk_diffusion"].flops
        )

    def test_full_step_has_all_phases(self):
        w = full_step_workload(512, 64, 2)
        assert set(w.phases) == {
            "rk_diffusion",
            "rk_convection",
            "rk_other",
            "non_rk",
        }
        assert w.num_stages == 4

    def test_rk4_costs_twice_heun(self):
        rk4 = full_step_workload(512, 64, 2, RK4)
        heun = full_step_workload(512, 64, 2, HEUN2)
        ratio = (
            rk4.phases["rk_diffusion"].ops.flops
            / heun.phases["rk_diffusion"].ops.flops
        )
        assert ratio == pytest.approx(2.0)

    def test_non_rk_scales_with_nodes_only(self):
        small = full_step_workload(512, 64, 2)
        large = full_step_workload(1024, 64, 2)
        assert large.phases["non_rk"].ops.flops == pytest.approx(
            2 * small.phases["non_rk"].ops.flops
        )
        assert large.phases["rk_diffusion"] == small.phases["rk_diffusion"]

    def test_node_count_mapping(self):
        w = workload_for_node_count(8_000, polynomial_order=2)
        assert w.num_elements == 1_000  # N / p^3

    def test_invalid_sizes(self):
        with pytest.raises(SolverError):
            full_step_workload(0, 1, 2)
        with pytest.raises(SolverError):
            workload_for_node_count(0)


class TestPipelineDerivedWorkload:
    """rk_stage_workload is derived from the operator pipeline IR; the
    fusion levels are the same graph rewrites the solver executes."""

    def test_gather_fusion_moves_shared_load_to_other(self):
        shared = rk_stage_workload(10, 2, fusion="gather")
        assert set(shared) == {"rk_other", "rk_convection", "rk_diffusion"}
        none = rk_stage_workload(10, 2)
        saved = sum(w.dram_values for w in none.values()) - sum(
            w.dram_values for w in shared.values()
        )
        # exactly one element-load's traffic disappears
        assert saved == pytest.approx(10 * load_element(27).dram_values)

    def test_full_fusion_single_phase_and_cheaper(self):
        none = rk_stage_workload(10, 2)
        full = rk_stage_workload(10, 2, fusion="full")
        assert set(full) == {"rk_fused"}
        total_none = sum(w.flops for w in none.values())
        assert full["rk_fused"].flops < total_none

    def test_default_matches_legacy_split(self):
        """The default (unfused) derivation reproduces the original
        hand-written load+compute+store accounting exactly."""
        stage = rk_stage_workload(7, 2)
        legacy_conv = (
            load_element(27)
            + compute_convection_element(3)
            + store_element(27, 5)
        ).scaled(7)
        assert stage["rk_convection"].flops == pytest.approx(legacy_conv.flops)
        assert stage["rk_convection"].dram_values == pytest.approx(
            legacy_conv.dram_values
        )

    def test_element_count_helper_shared_with_mesh_layer(self):
        from repro.mesh.hexmesh import elements_for_node_count

        w = workload_for_node_count(8_000, polynomial_order=2)
        assert w.num_elements == elements_for_node_count(8_000, 2) == 1_000
