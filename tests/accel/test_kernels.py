"""RKL/RKU kernel structure (paper Fig. 1 / Fig. 3)."""

import pytest

from repro.accel.kernels import (
    RKU_LOOP_NAMES,
    build_rkl_kernel,
    build_rku_kernel,
)
from repro.solver.workload import (
    compute_convection_element,
    compute_diffusion_element,
)


class TestRKLStructure:
    def test_fig1_node_stages_present(self):
        """Fig. 1 / Fig. 3: load node (2a), compute gradients-tau-
        residuals (2b), store node contribution (2c)."""
        rkl = build_rkl_kernel()
        assert set(rkl.node_loops) == {
            "node_load",
            "node_compute",
            "node_store",
        }

    def test_node_loops_iterate_over_element_nodes(self):
        rkl = build_rkl_kernel(polynomial_order=2)
        for loop in rkl.node_loops.values():
            assert loop.trip_count == 27

    def test_compute_merges_diffusion_and_convection(self):
        """The 2b stage carries the flops of BOTH terms (the paper's
        hardware-reuse merge)."""
        rkl = build_rkl_kernel()
        ops = rkl.node_loops["node_compute"].ops_per_iter
        flops_2b = 27 * sum(c for op, c in ops.items() if op.startswith("f"))
        diff = compute_diffusion_element(3).flops
        conv = compute_convection_element(3).flops
        # merged stage ~ diffusion + convection minus the shared
        # primitive conversion counted once
        assert flops_2b > 0.85 * (diff + conv - 351)
        assert flops_2b < 1.05 * (diff + conv)

    def test_store_stage_writes_without_reading(self):
        """The restructured 2c writes node residuals (no RMW recurrence)."""
        rkl = build_rkl_kernel()
        store = rkl.node_loops["node_store"]
        for acc in store.accesses:
            if acc.array.startswith("res_"):
                assert acc.reads_per_iter == 0
                assert acc.writes_per_iter > 0

    def test_load_ports_cover_conserved_fields(self):
        rkl = build_rkl_kernel()
        gathers = [p.array for p in rkl.load_ports if p.pattern == "gather"]
        assert set(gathers) == {"rho", "mom_x", "mom_y", "mom_z", "energy"}

    def test_staging_arrays_in_uram(self):
        from repro.hls.arrays import MemoryKind

        rkl = build_rkl_kernel(batch_elements=1024)
        assert rkl.onchip_arrays["stage_in"].kind is MemoryKind.URAM
        assert rkl.onchip_arrays["stage_out"].kind is MemoryKind.URAM
        assert rkl.onchip_arrays["stage_in"].words == 2 * 1024 * 5 * 27

    def test_higher_order_scales(self):
        rkl = build_rkl_kernel(polynomial_order=3)
        assert rkl.nodes_per_element == 64
        assert all(
            loop.trip_count == 64 for loop in rkl.node_loops.values()
        )


class TestRKUStructure:
    def test_five_update_loops(self):
        rku = build_rku_kernel(decoupled_interfaces=True)
        assert len(rku.update_loops) == 5
        assert tuple(l.name for l in rku.update_loops) == RKU_LOOP_NAMES

    def test_decoupling_removes_recurrence(self):
        decoupled = build_rku_kernel(decoupled_interfaces=True)
        coupled = build_rku_kernel(decoupled_interfaces=False)
        assert all(l.recurrence_ii == 1 for l in decoupled.update_loops)
        assert all(l.recurrence_ii > 1 for l in coupled.update_loops)

    def test_coupled_recurrence_matches_read_latency(self):
        rku = build_rku_kernel(decoupled_interfaces=False, read_latency_cycles=10)
        assert rku.update_loops[0].recurrence_ii == 11
