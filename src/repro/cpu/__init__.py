"""Server-CPU performance and power models (paper Section IV-B).

The paper's software baseline is the same C++ solver running
single-threaded on an Intel Xeon Silver 4210 (2.20 GHz, 32K L1, 1M L2,
14M L3). :mod:`repro.cpu.xeon` prices the solver's workload
(:mod:`repro.solver.workload`) with a per-phase roofline-style model;
:mod:`repro.cpu.power` carries the measured package power; and
:mod:`repro.cpu.roofline` provides the generic machinery.
"""

from .roofline import RooflinePoint, phase_time_seconds
from .xeon import XeonSilver4210, XEON_SILVER_4210, cpu_step_time
from .power import XEON_PACKAGE_POWER_W

__all__ = [
    "RooflinePoint",
    "phase_time_seconds",
    "XeonSilver4210",
    "XEON_SILVER_4210",
    "cpu_step_time",
    "XEON_PACKAGE_POWER_W",
]
