"""Single-thread Xeon Silver 4210 timing model.

Prices the solver workload (:mod:`repro.solver.workload`) phase by phase
with :mod:`repro.cpu.roofline`. Per-phase effective rates are calibrated
once against the paper's Fig. 2 breakdown and Section IV-B end-to-end
numbers (see EXPERIMENTS.md); each constant's rationale:

- **convection** — flux arithmetic with regular access; FMA-friendly, so
  the highest effective flop rate of the four phases;
- **diffusion** — derivative/metric chains with strided accesses along
  the slow tensor directions; lower IPC, lower effective bandwidth;
- **rk_other** — the RK axpy sweeps and lumped-mass division stream many
  arrays concurrently with little arithmetic; effectively bound by a
  multi-stream bandwidth well below single-stream peak (write-allocate
  traffic on every destination array);
- **non_rk** — host bookkeeping, diagnostics and output staging; mostly
  irregular pointer-chasing and I/O-adjacent copies, the least efficient
  phase of the four.

The Xeon Silver 4210 is a 10-core Cascade Lake at 2.20 GHz (3.2 GHz
single-core turbo) with AVX-512; a single core sustains ~10-25 GFLOP/s
on regular loops and ~12 GB/s of DRAM bandwidth — the effective rates
below sit inside those envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CalibrationError
from ..solver.workload import RKWorkload, workload_for_node_count
from ..timeint.butcher import RK4
from .roofline import RooflinePoint, phase_time_seconds

#: Bytes per value in the CPU solver (double precision C++).
CPU_BYTES_PER_VALUE = 8

#: Calibrated per-phase effective rates (GFLOP/s, GB/s).
_DEFAULT_RATES: dict[str, RooflinePoint] = {
    "rk_convection": RooflinePoint(
        name="rk_convection", gflops_effective=14.3, gbytes_per_s_effective=10.5
    ),
    "rk_diffusion": RooflinePoint(
        name="rk_diffusion", gflops_effective=8.5, gbytes_per_s_effective=9.0
    ),
    "rk_other": RooflinePoint(
        name="rk_other", gflops_effective=6.0, gbytes_per_s_effective=4.0
    ),
    "non_rk": RooflinePoint(
        name="non_rk", gflops_effective=3.0, gbytes_per_s_effective=0.73
    ),
}


@dataclass(frozen=True)
class XeonSilver4210:
    """The paper's host CPU, reduced to per-phase effective rates."""

    name: str = "Intel Xeon Silver 4210 @ 2.20GHz (single thread)"
    rates: dict[str, RooflinePoint] = field(
        default_factory=lambda: dict(_DEFAULT_RATES)
    )

    def phase_seconds(self, workload: RKWorkload) -> dict[str, float]:
        """Seconds per phase for one time step of the given workload."""
        out: dict[str, float] = {}
        for name, phase in workload.phases.items():
            try:
                rates = self.rates[name]
            except KeyError:
                raise CalibrationError(
                    f"no calibrated rates for phase {name!r}"
                ) from None
            out[name] = phase_time_seconds(
                phase.ops, rates, CPU_BYTES_PER_VALUE
            )
        return out

    def step_seconds(self, workload: RKWorkload) -> float:
        """Total seconds for one time step."""
        return sum(self.phase_seconds(workload).values())

    def breakdown(self, workload: RKWorkload) -> dict[str, float]:
        """Fractional Fig. 2-style breakdown for one step."""
        phases = self.phase_seconds(workload)
        total = sum(phases.values())
        return {name: secs / total for name, secs in phases.items()}


#: Default calibrated instance.
XEON_SILVER_4210 = XeonSilver4210()


def cpu_step_time(num_nodes: int, polynomial_order: int = 2) -> float:
    """Seconds per time step on the modeled Xeon for a TGV mesh."""
    workload = workload_for_node_count(num_nodes, polynomial_order, RK4)
    return XEON_SILVER_4210.step_seconds(workload)
