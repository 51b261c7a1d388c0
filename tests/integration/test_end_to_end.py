"""End-to-end pipeline: functional solve + timing models + experiments."""

import gc

import numpy as np
import pytest

from repro.accel.cosim import (
    _RKLShards,
    analytic_block_cycles,
    cosimulate_rk_stage,
    design_timing,
)
from repro.dataflow.simulator import DataflowSimulator


def rkl_graph(design, num_nodes, num_elements):
    """The shared RKL lowering of one CU streaming ``num_elements``
    one-element tokens, its LOAD/STORE priced at ``num_nodes``."""
    return _RKLShards(
        design, num_nodes, num_elements,
        block_size=1, num_cus=1, partitions=None,
    ).graph("rkl")


class TestCosimConsistency:
    @pytest.mark.parametrize("mesh_k", [2, 3, 4])
    def test_cycle_sim_matches_analytic_across_sizes(self, proposed, mesh_k):
        from repro.mesh.hexmesh import periodic_box_mesh

        mesh = periodic_box_mesh(mesh_k, 2)
        result = cosimulate_rk_stage(proposed, mesh, verify=False)
        analytic = analytic_block_cycles(
            proposed, mesh.num_nodes, mesh.num_elements
        )
        for window in result.per_stage_rkl_cycles:
            assert abs(window - analytic) / analytic < 0.02

    def test_dataflow_graph_ii_matches_design_model(self, proposed):
        """The cycle simulator's steady-state II must equal the design
        model's element II (the quantity used for paper-scale numbers)."""
        n = 50_000
        graph, iterations = rkl_graph(proposed, n, 200)
        trace = DataflowSimulator(graph).run(iterations)
        measured = trace.achieved_initiation_interval()
        analytic = proposed.rkl_element_ii(n)
        assert measured == pytest.approx(analytic, rel=0.02)

    def test_bottleneck_is_load_at_scale(self, proposed):
        graph, iterations = rkl_graph(proposed, 4_200_000, 100)
        trace = DataflowSimulator(graph).run(iterations)
        assert trace.bottleneck_task() == "load_element"


class TestCrossModelCoherence:
    def test_same_workload_prices_both_platforms(self, proposed):
        """CPU and FPGA timing both derive from the solver workload; the
        RK-region speedup implied jointly must sit in the paper's range
        (~2.4x at 4.2M nodes)."""
        from repro.cpu.xeon import XEON_SILVER_4210
        from repro.solver.workload import workload_for_node_count

        n = 4_200_000
        cpu_rk = XEON_SILVER_4210.rk_seconds(workload_for_node_count(n))
        fpga_rk = design_timing(proposed, n).rk_step_seconds
        assert cpu_rk / fpga_rk == pytest.approx(2.4, abs=0.4)

    def test_functional_and_workload_flop_agreement(self):
        """The analytic per-element flop counts match the numpy solver's
        actual arithmetic to first order: check the diffusion/convection
        ratio also emerges from wall-clock profiling."""
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        mesh = periodic_box_mesh(4, 2)
        sim = Simulation(mesh, DEFAULT_TGV)
        # Start the timed run with a fresh collector: a full collection of
        # the whole suite's live objects takes tens of milliseconds and,
        # landing inside one phase, would skew the ratio by itself.
        gc.collect()
        sim.run(8)
        totals = sim.profiler.totals()
        ratio = totals["rk.diffusion"] / totals["rk.convection"]
        # paper's CPU ratio is 1.86; numpy constants differ but the
        # ordering and rough magnitude must agree
        assert 1.1 < ratio < 2.6

    def test_experiment_harness_round_trip(self, proposed, vitis):
        """Run the full experiment set once end-to-end."""
        from repro.experiments import (
            run_fig2,
            run_fig5,
            run_sec4b_cpu,
            run_sec4b_power,
            run_tab1,
        )

        fig2 = run_fig2()
        fig5 = run_fig5(proposed=proposed, vitis=vitis)
        tab1 = run_tab1(proposed=proposed, vitis=vitis)
        cpu = run_sec4b_cpu(design=proposed)
        power = run_sec4b_power(design=proposed)
        assert fig2.rk_total_percent > 70
        assert fig5.average_speedup() > 6
        assert tab1.ratio("URAM") > 5
        assert cpu.latency_reduction_percent > 35
        assert power.paper_accounting_ratio > 3
