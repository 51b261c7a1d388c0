"""Multi-compute-unit scaling — the paper's future-work direction.

The paper closes by "paving the way for tackling even more challenging
CFD simulations". The natural next step on the U200 is a second RKL
compute unit: the board has *two* DDR-attached SLRs (SLR0 and SLR2, each
with its own pair of DDR4 channels), so the element stream can be split
across two identical RKL instances with no shared memory bandwidth,
while RKU stays on SLR1 between them.

The N-CU configuration is priced by the same two timing routes as one
CU, :func:`repro.accel.cosim.design_timing` (``num_cus``) and
:func:`repro.accel.cosim.design_timing_from_rk_cosim` (the CU count of
the co-simulated run), at the clock of one placement rule,
:meth:`repro.accel.designs.AcceleratorDesign.floorplan_for`:

- elements are balanced across the CUs
  (:func:`repro.mesh.partition.partition_elements_balanced` semantics);
- each CU keeps the design's element II against *its own* memory
  channels, priced at its share of the node space
  (:func:`nodes_per_compute_unit`);
- RKL time per stage becomes the max over CUs (near-halved);
- RKU (whole-mesh update) is unchanged and grows in relative weight —
  the emerging Amdahl bottleneck the analysis surfaces.

The CU ceiling is a property of the *device model*
(:func:`max_compute_units` — the memory-attached SLR count), so
HBM-class boards with more attached SLRs admit ``N > 2`` with no code
change. This module keeps the shared arithmetic and the scaling table.
"""

from __future__ import annotations

from ..fpga.device import ALVEO_U200, FPGADevice
from .designs import AcceleratorDesign, DesignTiming, proposed_design


def max_compute_units(device: FPGADevice = ALVEO_U200) -> int:
    """Compute-unit ceiling of a device: its memory-attached SLR count.

    Each RKL instance needs its own DDR (or HBM pseudo-channel group)
    attachment to keep the proposed design's per-CU bandwidth; the
    bound is therefore a property of the *device model*, not a
    constant — an HBM-class board with more memory-attached SLRs admits
    ``N > 2`` configurations with no code change here.
    """
    return device.num_ddr_attached_slrs


def nodes_per_compute_unit(num_nodes: int, num_compute_units: int) -> int:
    """Gather footprint of one CU's shard of the mesh.

    Each CU streams its element share against its own DDR channels, so
    its LOAD/STORE latencies are priced at its partition of the node
    space. Shared by the closed form
    (:func:`repro.accel.cosim.design_timing`), the closed-form DSE tier
    and the co-simulation lowering (:mod:`repro.accel.cosim`), so the
    routes cannot silently diverge.
    """
    return max(1, round(num_nodes / num_compute_units))


def scaling_table(
    num_nodes: int, base: AcceleratorDesign | None = None
) -> list[DesignTiming]:
    """Closed-form timing at 1..max CUs for one mesh size.

    Returns one :func:`~repro.accel.cosim.design_timing` row per CU
    count the design's device admits (:func:`max_compute_units`), ready
    for :func:`render_scaling_table`. ``base`` defaults to the paper's
    proposed design.
    """
    from .cosim import design_timing

    base = base if base is not None else proposed_design()
    return [
        design_timing(base, num_nodes, num_cus=cus)
        for cus in range(1, max_compute_units(base.device) + 1)
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
