"""Alveo U200 board model (paper Section III-A / IV).

- :mod:`repro.fpga.device` — SLR-level resource inventory, SLL links;
- :mod:`repro.fpga.ddr` — DDR4 channel timing with a gather-locality
  (row-buffer) efficiency model;
- :mod:`repro.fpga.axi` — off-chip memory ports, burst cost, and the
  update-loop II of coupled vs decoupled AXI interfaces;
- :mod:`repro.fpga.floorplan` — kernel-to-SLR placement with the
  congestion-based fmax derating that explains the paper's 100 vs
  150 MHz clock gap;
- :mod:`repro.fpga.power` — utilization/activity power model;
- :mod:`repro.fpga.pcie` — host link transfer model.
"""

from .device import SLR, FPGADevice, ALVEO_U200
from .ddr import DDRTimings, gather_hit_rate, DDR4_2400
from .axi import MemoryPort, burst_cycles
from .floorplan import Floorplan, KernelPlacement, plan_floorplan, achievable_clock_mhz
from .power import FPGAPowerModel, PowerReport
from .pcie import PCIeLink, PCIE_GEN3_X16

__all__ = [
    "SLR",
    "FPGADevice",
    "ALVEO_U200",
    "DDRTimings",
    "gather_hit_rate",
    "DDR4_2400",
    "MemoryPort",
    "burst_cycles",
    "Floorplan",
    "KernelPlacement",
    "plan_floorplan",
    "achievable_clock_mhz",
    "FPGAPowerModel",
    "PowerReport",
    "PCIeLink",
    "PCIE_GEN3_X16",
]
