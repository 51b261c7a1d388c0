"""The paper's FEM accelerator and its baselines (Sections III & IV).

Builds both evaluated designs from the *same* solver workload:

- :mod:`repro.accel.calibration` — every calibrated model constant, with
  its provenance;
- :mod:`repro.accel.interfaces` — the array-to-AXI-interface assignment
  optimizer (Fig. 4), including interface *reuse* across mutually
  exclusive tasks;
- :mod:`repro.accel.kernels` — RKL / RKU kernel construction: loop
  nests, on-chip arrays, memory ports, dataflow graphs;
- :mod:`repro.accel.optimizer` — the Section III-D iterative II
  minimization (directive DSE under resource constraints);
- :mod:`repro.accel.designs` — the proposed design and the Vitis-HLS
  auto-optimized baseline;
- :mod:`repro.accel.cosim` — end-to-end timing, the exact schedule
  tier, and functional co-simulation of a full RK step against the
  numpy solver;
- :mod:`repro.accel.ablations` — single-optimization ablation variants;
- :mod:`repro.accel.reports` — resource/timing/power report rendering.
"""

from .calibration import AcceleratorCalibration, DEFAULT_CALIBRATION
from .interfaces import InterfaceAssignment, assign_interfaces
from .kernels import RKLKernelModel, RKUKernelModel, build_rkl_kernel, build_rku_kernel
from .designs import (
    AcceleratorDesign,
    DesignOptions,
    DesignTiming,
    proposed_design,
    vitis_baseline_design,
)
from .optimizer import IIOptimizer, OptimizationStep
from .cosim import design_timing, streamed_residual

__all__ = [
    "AcceleratorCalibration",
    "DEFAULT_CALIBRATION",
    "InterfaceAssignment",
    "assign_interfaces",
    "RKLKernelModel",
    "RKUKernelModel",
    "build_rkl_kernel",
    "build_rku_kernel",
    "AcceleratorDesign",
    "DesignOptions",
    "proposed_design",
    "vitis_baseline_design",
    "IIOptimizer",
    "OptimizationStep",
    "DesignTiming",
    "design_timing",
    "streamed_residual",
]
