"""Xeon timing model calibration checks."""

import pytest

from repro.cpu.xeon import XEON_SILVER_4210, cpu_step_time
from repro.solver.workload import workload_for_node_count
from repro.timeint.butcher import RK4


def cpu_breakdown(num_nodes: int) -> dict[str, float]:
    """Fig. 2-style fractional breakdown of a p=2 RK4 step."""
    return XEON_SILVER_4210.breakdown(
        workload_for_node_count(num_nodes, 2, RK4)
    )


class TestBreakdownShape:
    def test_diffusion_dominates(self):
        b = cpu_breakdown(2_000_000)
        assert b["rk_diffusion"] > b["rk_convection"]
        assert b["rk_diffusion"] > b["rk_other"]

    def test_matches_paper_within_tolerance(self):
        """Averaged over the paper's 1M-4M meshes, each category must sit
        within 2.5 percentage points of Fig. 2."""
        targets = {
            "rk_diffusion": 39.2,
            "rk_convection": 21.04,
            "rk_other": 16.13,
            "non_rk": 23.63,
        }
        acc = {k: 0.0 for k in targets}
        counts = (1_000_000, 2_000_000, 3_000_000, 4_000_000)
        for n in counts:
            for k, v in cpu_breakdown(n).items():
                acc[k] += 100.0 * v / len(counts)
        for key, target in targets.items():
            assert acc[key] == pytest.approx(target, abs=2.5), key

    def test_rk_method_near_76_percent(self):
        b = cpu_breakdown(2_000_000)
        rk = 100 * (1.0 - b["non_rk"])
        assert rk == pytest.approx(76.5, abs=2.5)

    def test_breakdown_stable_across_mesh_sizes(self):
        b1 = cpu_breakdown(1_000_000)
        b4 = cpu_breakdown(4_000_000)
        for key in b1:
            assert b1[key] == pytest.approx(b4[key], abs=0.02)


class TestStepTime:
    def test_scales_linearly_with_nodes(self):
        t1 = cpu_step_time(1_000_000)
        t4 = cpu_step_time(4_000_000)
        assert t4 / t1 == pytest.approx(4.0, rel=0.02)

    def test_absolute_scale_seconds_per_step(self):
        """~8 s per RK4 step at 4.2M nodes single-threaded — the scale
        implied by the paper's Section IV-B arithmetic."""
        assert cpu_step_time(4_200_000) == pytest.approx(8.0, abs=1.0)

    def test_phase_seconds_split_the_step(self):
        """The RK phases and ``non_rk`` add up to the whole step."""
        w = workload_for_node_count(2_000_000)
        phases = XEON_SILVER_4210.phase_seconds(w)
        rk = sum(v for k, v in phases.items() if k != "non_rk")
        assert rk + phases["non_rk"] == pytest.approx(
            XEON_SILVER_4210.step_seconds(w)
        )
