"""Multi-compute-unit scaling — the paper's future-work direction.

The paper closes by "paving the way for tackling even more challenging
CFD simulations". The natural next step on the U200 is a second RKL
compute unit: the board has *two* DDR-attached SLRs (SLR0 and SLR2, each
with its own pair of DDR4 channels), so the element stream can be split
across two identical RKL instances with no shared memory bandwidth,
while RKU stays on SLR1 between them.

This module elaborates that design point from the same kernel models.
The CU ceiling is a property of the *device model*
(:func:`max_compute_units` — the memory-attached SLR count), so
HBM-class boards with more attached SLRs admit ``N > 2`` with no code
change:

- elements are balanced across the CUs
  (:func:`repro.mesh.partition.partition_elements_balanced` semantics);
- each CU keeps the proposed design's element II against *its own* DDR
  channels;
- RKL time per stage becomes the max over CUs (near-halved);
- RKU (whole-mesh update) is unchanged and grows in relative weight —
  the emerging Amdahl bottleneck the analysis surfaces.

Two routes produce a :class:`~repro.accel.designs.DesignTiming` with
``num_compute_units`` set:

- :func:`multi_cu_timing` — the closed-form model above;
- :func:`multi_cu_timing_from_cosim` — the same quantity derived from a
  *functional* multi-CU co-simulation
  (:func:`repro.accel.cosim.cosimulate_rk_stage` with ``num_cus``): the
  RKL stage time is the simulated stage window — max over the sharded
  chains that streamed the real step — so the timing extension and the
  physics share one execution. The co-simulation runs on the vectorized
  schedule engine by default (``engine="auto"``, exact trace parity
  with the event oracle), which is what makes deriving this timing
  tractable at paper-scale shard sizes and ``N > 2`` CU counts.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..config import seconds_from_cycles
from ..errors import ExperimentError
from ..fpga.device import ALVEO_U200, FPGADevice
from ..fpga.floorplan import KernelPlacement, clock_for_floorplan, plan_floorplan
from ..timeint.butcher import RK4, ButcherTableau
from .designs import AcceleratorDesign, DesignTiming, proposed_design

if TYPE_CHECKING:
    from .cosim import RKStepCosimResult


def max_compute_units(device: FPGADevice = ALVEO_U200) -> int:
    """Compute-unit ceiling of a device: its memory-attached SLR count.

    Each RKL instance needs its own DDR (or HBM pseudo-channel group)
    attachment to keep the proposed design's per-CU bandwidth; the
    bound is therefore a property of the *device model*, not a
    constant — an HBM-class board with more memory-attached SLRs admits
    ``N > 2`` configurations with no code change here.
    """
    return len(device.ddr_attached_slrs())


#: DDR-attached SLRs on the paper's U200 bound its CU count (kept as a
#: constant for the established import path; prefer
#: :func:`max_compute_units` for other devices).
MAX_COMPUTE_UNITS = max_compute_units(ALVEO_U200)


def nodes_per_compute_unit(num_nodes: int, num_compute_units: int) -> int:
    """Gather footprint of one CU's shard of the mesh.

    Each CU streams its element share against its own DDR channels, so
    its LOAD/STORE latencies are priced at its partition of the node
    space. Shared by the closed-form :func:`multi_cu_timing` and the
    co-simulation lowering (:mod:`repro.accel.cosim`) so the two routes
    cannot silently diverge.
    """
    return max(1, round(num_nodes / num_compute_units))


def multi_cu_floorplan(
    base: AcceleratorDesign,
    num_compute_units: int,
    device: FPGADevice = ALVEO_U200,
):
    """Place N RKL CUs on the DDR-attached SLRs, RKU on SLR1.

    Parameters
    ----------
    base:
        Design whose RKL/RKU resource vectors are replicated/placed.
    num_compute_units:
        RKL instances, ``1..max_compute_units(device)`` (one per
        memory-attached SLR).
    device:
        Target FPGA (defaults to the paper's Alveo U200).

    Returns
    -------
    repro.fpga.floorplan.Floorplan
        The planned placement (drives the achievable clock).

    Raises
    ------
    ExperimentError
        If ``num_compute_units`` is out of range for the device.
    """
    limit = max_compute_units(device)
    if not 1 <= num_compute_units <= limit:
        raise ExperimentError(
            f"num_compute_units must be 1..{limit} on {device.name}"
        )
    ddr_slrs = [s.name for s in device.ddr_attached_slrs()]
    placements = [
        KernelPlacement(
            f"rkl{cu}",
            base.rkl_resources,
            needs_ddr_attach=True,
            slr=ddr_slrs[cu],
        )
        for cu in range(num_compute_units)
    ]
    # RKU keeps the paper's placement on a memory-free SLR when the
    # device has one (SLR1 on the U200); an HBM-class device with every
    # SLR memory-attached co-locates it with the first CU instead.
    non_ddr = [s.name for s in device.slrs if not s.has_ddr_attach]
    rku_slr = non_ddr[0] if non_ddr else device.slrs[0].name
    placements.append(
        KernelPlacement("rku", base.rku_resources, slr=rku_slr)
    )
    return plan_floorplan(device, placements)


def multi_cu_timing(
    num_compute_units: int,
    num_nodes: int,
    base: AcceleratorDesign | None = None,
    device: FPGADevice = ALVEO_U200,
    tableau: ButcherTableau = RK4,
) -> DesignTiming:
    """Closed-form timing of the N-CU configuration at one mesh size.

    Parameters
    ----------
    num_compute_units:
        RKL compute units (``1..max_compute_units(device)``).
    num_nodes:
        Mesh nodes; elements are derived from the base design's
        polynomial order and balanced across CUs.
    base:
        Base design point (defaults to the paper's proposed design).
    device:
        Target FPGA for the floorplan/clock.
    tableau:
        RK tableau supplying the per-step stage count.

    Returns
    -------
    DesignTiming
        Per-step timing with RKL as the max over CUs and unsharded RKU.

    Raises
    ------
    ExperimentError
        If ``num_nodes < 1`` or the CU count is out of range.
    """
    from .cosim import analytic_block_cycles

    if num_nodes < 1:
        raise ExperimentError("num_nodes must be >= 1")
    base = base if base is not None else proposed_design()
    plan = multi_cu_floorplan(base, num_compute_units, device)
    clock = clock_for_floorplan(plan)
    hz = clock * 1e6

    num_elements = max(1, round(num_nodes / base.rkl.polynomial_order**3))
    per_cu = math.ceil(num_elements / num_compute_units)
    nodes_per_cu = nodes_per_compute_unit(num_nodes, num_compute_units)
    stage_cycles = analytic_block_cycles(base, nodes_per_cu, per_cu)
    rku_cycles = base.rku_step_cycles(num_nodes)
    return DesignTiming(
        design_name=base.options.name,
        num_nodes=num_nodes,
        num_elements=num_elements,
        clock_mhz=clock,
        rkl_seconds_per_stage=seconds_from_cycles(stage_cycles, hz),
        rku_seconds_per_step=seconds_from_cycles(rku_cycles, hz),
        num_stages=tableau.num_stages,
        num_compute_units=num_compute_units,
    )


def multi_cu_timing_from_cosim(
    result: RKStepCosimResult,
    base: AcceleratorDesign | None = None,
    device: FPGADevice = ALVEO_U200,
) -> DesignTiming:
    """Derive the N-CU :class:`DesignTiming` from a co-simulated step.

    This is the unification of the timing extension with the functional
    co-simulator: instead of the closed-form element-II model, the RKL
    stage time comes from the *simulated* chains that streamed the real
    step — the slowest stage window of ``result.per_stage_rkl_cycles``
    (each window is already the max over compute units on the shared
    simulator clock). Clock and RKU are shared with
    :func:`multi_cu_timing`, so the two routes are directly comparable
    and must agree at block size 1 — asserted by the test suite.

    Parameters
    ----------
    result:
        The :func:`repro.accel.cosim.cosimulate_rk_stage` outcome; it
        supplies the CU count, mesh size and stage count.
    base:
        Base design point (defaults to the paper's proposed design);
        must be the design the co-simulation ran.
    device:
        Target FPGA for the floorplan/clock.
    """
    base = base if base is not None else proposed_design()
    num_nodes = result.final_state.num_nodes
    plan = multi_cu_floorplan(base, result.num_compute_units, device)
    clock = clock_for_floorplan(plan)
    hz = clock * 1e6
    return DesignTiming(
        design_name=base.options.name,
        num_nodes=num_nodes,
        num_elements=result.num_elements,
        clock_mhz=clock,
        rkl_seconds_per_stage=seconds_from_cycles(
            max(result.per_stage_rkl_cycles), hz
        ),
        rku_seconds_per_step=seconds_from_cycles(
            base.rku_step_cycles(num_nodes), hz
        ),
        num_stages=result.num_stages,
        num_compute_units=result.num_compute_units,
    )


def scaling_table(
    num_nodes: int,
    base: AcceleratorDesign | None = None,
    device: FPGADevice = ALVEO_U200,
) -> list[DesignTiming]:
    """Closed-form timing at 1..max CUs for one mesh size.

    Returns one :func:`multi_cu_timing` row per CU count the device
    admits (:func:`max_compute_units`), ready for
    :func:`render_scaling_table`.
    """
    base = base if base is not None else proposed_design()
    return [
        multi_cu_timing(cus, num_nodes, base, device)
        for cus in range(1, max_compute_units(device) + 1)
    ]


def render_scaling_table(timings: list[DesignTiming]) -> str:
    """Readable CU-scaling table with the Amdahl split.

    ``timings`` must be non-empty; the first row is the speedup
    baseline.
    """
    lines = [
        f"Multi-CU scaling at {timings[0].num_nodes} nodes",
        f"{'CUs':>4} {'clock':>7} {'RKL s/stage':>13} {'RKU s/step':>12} "
        f"{'RK s/step':>11} {'speedup':>9}",
        "-" * 60,
    ]
    base_step = timings[0].rk_step_seconds
    for t in timings:
        lines.append(
            f"{t.num_compute_units:>4} {t.clock_mhz:>5.0f}M "
            f"{t.rkl_seconds_per_stage:>13.4f} {t.rku_seconds_per_step:>12.4f} "
            f"{t.rk_step_seconds:>11.4f} {base_step / t.rk_step_seconds:>8.2f}x"
        )
    return "\n".join(lines)
