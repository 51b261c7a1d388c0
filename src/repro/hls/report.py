"""Vitis-style synthesis report rendering.

Produces the familiar per-loop table (trip count, II, depth, latency,
limiting factor) plus a resource summary — the artifact an HLS engineer
reads when applying the paper's Section III-D procedure.
"""

from __future__ import annotations

from .resources import ResourceVector
from .scheduler import LoopSchedule


def synthesis_report(
    kernel_name: str,
    schedules: dict[str, LoopSchedule],
    resources: ResourceVector,
    clock_mhz: float,
) -> str:
    """Render a synthesis report for one kernel."""
    lines = [
        f"== Synthesis report: {kernel_name} @ {clock_mhz:.0f} MHz ==",
        "",
        "Loop                             trips  unroll   II  depth    latency  limited-by",
        "-" * 92,
    ]
    for name, sched in schedules.items():
        pipe = "yes" if sched.pipelined else "no"
        lines.append(
            f"{name:<30} {sched.trips:>6} {sched.unroll_factor:>7} "
            f"{sched.achieved_ii:>4} {sched.depth:>6} {sched.latency:>10}  "
            f"{sched.limiting_factor} (pipelined={pipe})"
        )
    lines += [
        "-" * 92,
        "Resources:",
        f"  LUT   : {resources.lut:>12.0f}",
        f"  FF    : {resources.ff:>12.0f}",
        f"  BRAM36: {resources.bram36:>12.0f}",
        f"  URAM  : {resources.uram:>12.0f}",
        f"  DSP   : {resources.dsp:>12.0f}",
    ]
    return "\n".join(lines)
