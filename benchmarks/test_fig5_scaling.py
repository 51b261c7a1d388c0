"""Fig. 5 — RK-method execution time vs mesh nodes.

Paper: proposed beats Vitis-optimized by 7.9x on average over
{5K, 275K, 1.4M, 2.1M, 3M, 4.2M} nodes; both grow 3.4x from 1.4M to
4.2M; Vitis design limited to 100 MHz vs the proposed 150 MHz.
"""

import pytest

from repro.experiments.fig5_scaling import render_fig5, run_fig5


def test_fig5_scaling(benchmark, proposed, vitis):
    result = benchmark(lambda: run_fig5(proposed=proposed, vitis=vitis))
    print()
    print(render_fig5(result))

    # headline: 7.9x average speedup
    assert result.average_speedup() == pytest.approx(7.9, abs=0.9)
    # consistent win at every node count
    for p in result.points:
        assert p.speedup > 6.0
    # 3.4x growth from 1.4M -> 4.2M for both designs
    assert result.proposed_growth() == pytest.approx(3.4, abs=0.35)
    assert result.vitis_growth() == pytest.approx(3.4, abs=0.45)
    # clock gap (100 vs 150 MHz)
    assert proposed.clock_mhz == 150.0
    assert vitis.clock_mhz == 100.0

    benchmark.extra_info["average_speedup"] = round(result.average_speedup(), 2)
    benchmark.extra_info["paper_average_speedup"] = 7.9
    benchmark.extra_info["proposed_growth"] = round(result.proposed_growth(), 2)
    benchmark.extra_info["paper_growth"] = 3.4


def test_fig5_cycle_level_anchor(benchmark, proposed):
    """Cycle-accurate anchor for the analytic extrapolation: simulate the
    element pipeline for a small mesh and compare against the analytic
    steady-state total used at paper scale."""
    from repro.accel.cosim import _RKLShards
    from repro.dataflow.simulator import DataflowSimulator

    graph, iterations = _RKLShards(
        proposed, 275_000, 500, block_size=1, num_cus=1, partitions=None
    ).graph("rkl")
    trace = benchmark(lambda: DataflowSimulator(graph).run(iterations))
    analytic = proposed.rkl_fill_cycles(275_000) + (
        proposed.rkl_element_ii(275_000) * 499
    )
    assert trace.total_cycles == pytest.approx(analytic, rel=0.02)
    benchmark.extra_info["simulated_cycles"] = trace.total_cycles
