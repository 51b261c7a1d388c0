"""Experiment harness: one module per paper table/figure.

Each experiment module exposes a ``run_*`` function returning a
structured result object plus a ``render_*`` function producing the
paper-style rows/series. The benchmark suite (``benchmarks/``) executes
and checks them against the paper's numbers.

Index:

- :mod:`repro.experiments.fig2_breakdown` — CPU execution-time breakdown;
- :mod:`repro.experiments.fig5_scaling` — RK time vs mesh nodes,
  Proposed vs Vitis-optimized;
- :mod:`repro.experiments.tab1_resources` — post-P&R utilization;
- :mod:`repro.experiments.sec4b_cpu` — end-to-end CPU comparison;
- :mod:`repro.experiments.sec4b_power` — power comparison;
- :mod:`repro.experiments.ablation_study` — per-optimization ablations.
"""

from .fig2_breakdown import Fig2Result, run_fig2, render_fig2
from .fig5_scaling import Fig5Result, Fig5Point, run_fig5, render_fig5
from .tab1_resources import Tab1Result, run_tab1, render_tab1
from .sec4b_cpu import Sec4bCpuResult, run_sec4b_cpu, render_sec4b_cpu
from .sec4b_power import Sec4bPowerResult, run_sec4b_power, render_sec4b_power
from .ablation_study import AblationResult, run_ablation_study, render_ablation_study

__all__ = [
    "Fig2Result",
    "run_fig2",
    "render_fig2",
    "Fig5Result",
    "Fig5Point",
    "run_fig5",
    "render_fig5",
    "Tab1Result",
    "run_tab1",
    "render_tab1",
    "Sec4bCpuResult",
    "run_sec4b_cpu",
    "render_sec4b_cpu",
    "Sec4bPowerResult",
    "run_sec4b_power",
    "render_sec4b_power",
    "AblationResult",
    "run_ablation_study",
    "render_ablation_study",
]
