"""Fig. 2 — breakdown of average CPU execution time.

Paper values (average over 1M-4M node meshes, single-thread Xeon):
RK(Diffusion) 39.2 %, RK(Convection) 21.04 %, RK(Other) 16.13 %,
Non-RK 23.63 %; the RK method totals 76.5 % ("the RK method was the most
time-intensive, accounting for an average of 76.5%").

Regenerated from the workload model priced by the calibrated Xeon
roofline; cross-checked (in tests) against wall-clock profiling of the
functional numpy solver on small meshes, which must reproduce the
qualitative ordering (diffusion > convection > rest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import PAPER_FIG2_NODE_COUNTS
from ..cpu.xeon import XEON_SILVER_4210, XeonSilver4210
from ..errors import ExperimentError
from ..solver.profiler import PAPER_FIG2_BREAKDOWN
from ..solver.workload import workload_for_node_count

#: Paper Fig. 2 percentages, keyed like our phase names.
PAPER_PERCENTAGES = {
    "rk_diffusion": 39.2,
    "rk_convection": 21.04,
    "rk_other": 16.13,
    "non_rk": 23.63,
}


@dataclass
class Fig2Result:
    """Modeled breakdown averaged over the paper's mesh sizes."""

    node_counts: tuple[int, ...]
    percentages: dict[str, float] = field(default_factory=dict)

    @property
    def rk_total_percent(self) -> float:
        """Share of the whole RK method (paper: 76.5 %)."""
        return sum(
            v for k, v in self.percentages.items() if k != "non_rk"
        )


def run_fig2(
    node_counts: tuple[int, ...] = PAPER_FIG2_NODE_COUNTS,
    cpu: XeonSilver4210 = XEON_SILVER_4210,
    polynomial_order: int = 2,
) -> Fig2Result:
    """Average the per-mesh breakdowns as the paper does."""
    if not node_counts:
        raise ExperimentError("need at least one node count")
    acc: dict[str, float] = {}
    for nodes in node_counts:
        workload = workload_for_node_count(nodes, polynomial_order)
        for name, frac in cpu.breakdown(workload).items():
            acc[name] = acc.get(name, 0.0) + 100.0 * frac / len(node_counts)
    return Fig2Result(node_counts=tuple(node_counts), percentages=acc)


def render_fig2(result: Fig2Result) -> str:
    """Paper-style table with the measured-vs-paper columns."""
    lines = [
        "Fig. 2 — breakdown of average execution time (CPU, single thread)",
        f"{'category':<18}{'model %':>10}{'paper %':>10}",
        "-" * 38,
    ]
    labels = {
        "rk_diffusion": "RK(Diffusion)",
        "rk_convection": "RK(Convection)",
        "rk_other": "RK(Other)",
        "non_rk": "Non-RK",
    }
    for key, label in labels.items():
        lines.append(
            f"{label:<18}{result.percentages[key]:>10.2f}"
            f"{PAPER_PERCENTAGES[key]:>10.2f}"
        )
    lines.append(
        f"{'RK total':<18}{result.rk_total_percent:>10.2f}"
        f"{100 * PAPER_FIG2_BREAKDOWN.rk_total:>10.2f}"
    )
    return "\n".join(lines)
