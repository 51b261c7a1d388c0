"""Loop scheduling: II and latency estimation under directives.

Implements the textbook HLS scheduling identities that Vitis documents
(UG1399) and the paper's optimization loop manipulates:

- **pipelined loop**: ``latency = depth + II * (trips - 1)``;
- **achieved II** = max(target II, recurrence II, port-limited II),
  where the port-limited II of each array is
  ``ceil(accesses_per_iter / ports)`` with ``ports = 2 * partition``;
- **unrolling** by ``f`` divides the trip count and multiplies the body
  (ops and array accesses) by ``f`` — trading resources for throughput
  exactly as Section III-D describes ("we did not perform unrolling [on
  large loops], as this would duplicate the loop body by the factor
  used, resulting in high resource utilization");
- **non-pipelined loop**: ``latency = trips * depth`` (iteration starts
  only after the previous finishes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import HLSError
from .arrays import ArraySpec
from .directives import DirectiveSet
from .loops import LoopNest


@dataclass(frozen=True)
class LoopSchedule:
    """Scheduling outcome for one loop under one directive set."""

    loop_name: str
    pipelined: bool
    unroll_factor: int
    trips: int
    depth: int
    achieved_ii: int
    latency: int
    limiting_factor: str  # 'target' | 'recurrence' | 'ports:<array>' | 'none'


def port_limited_ii(
    loop: LoopNest,
    directives: DirectiveSet,
    arrays: dict[str, ArraySpec],
    unroll_factor: int,
) -> tuple[int, str]:
    """Memory-port II bound and the binding array, after unrolling."""
    worst_ii = 1
    worst_array = "none"
    for access in loop.accesses:
        spec = arrays.get(access.array)
        if spec is None:
            raise HLSError(
                f"loop {loop.name!r} accesses unknown array {access.array!r}"
            )
        factor = directives.partition_factor(spec)
        ports = 2 * factor
        per_iter = access.total_per_iter * unroll_factor
        ii = math.ceil(per_iter / ports) if per_iter > 0 else 1
        if ii > worst_ii:
            worst_ii = ii
            worst_array = spec.name
    return worst_ii, worst_array


def port_limiting_arrays(
    loop: LoopNest,
    directives: DirectiveSet,
    arrays: dict[str, ArraySpec],
    unroll_factor: int,
) -> list[str]:
    """All arrays whose port II equals the loop's port bound (ties).

    The Section III-D optimizer must widen *every* tied array in one
    move, or the achieved II cannot drop.
    """
    worst_ii, _ = port_limited_ii(loop, directives, arrays, unroll_factor)
    out: list[str] = []
    for access in loop.accesses:
        spec = arrays[access.array]
        factor = directives.partition_factor(spec)
        per_iter = access.total_per_iter * unroll_factor
        ii = math.ceil(per_iter / (2 * factor)) if per_iter > 0 else 1
        if ii == worst_ii and worst_ii > 1:
            out.append(spec.name)
    return out


def schedule_loop(
    loop: LoopNest,
    directives: DirectiveSet,
    arrays: dict[str, ArraySpec] | None = None,
) -> LoopSchedule:
    """Schedule one loop under the given directives.

    ``arrays`` provides the specs of every on-chip array the loop
    accesses (required when it has accesses).
    """
    arrays = arrays or {}
    unroll = directives.effective_unroll(loop)
    trips = math.ceil(loop.trip_count / unroll)
    mem_ii, mem_array = port_limited_ii(loop, directives, arrays, unroll)
    # The body cannot be shorter than its loop-carried dependency chain
    # or its port-serialized memory accesses — both execute inside one
    # iteration whether or not the loop is pipelined.
    depth = max(loop.estimated_depth(), loop.recurrence_ii, mem_ii)

    if directives.pipeline is None:
        # Sequential execution: each iteration occupies the full depth.
        latency = trips * depth
        return LoopSchedule(
            loop_name=loop.name,
            pipelined=False,
            unroll_factor=unroll,
            trips=trips,
            depth=depth,
            achieved_ii=depth,
            latency=latency,
            limiting_factor="none",
        )

    target = directives.pipeline.target_ii
    achieved = max(target, loop.recurrence_ii, mem_ii)
    if achieved == target and target >= max(loop.recurrence_ii, mem_ii):
        limiting = "target"
    elif achieved == loop.recurrence_ii and loop.recurrence_ii >= mem_ii:
        limiting = "recurrence"
    else:
        limiting = f"ports:{mem_array}"
    latency = depth + achieved * (trips - 1)
    return LoopSchedule(
        loop_name=loop.name,
        pipelined=True,
        unroll_factor=unroll,
        trips=trips,
        depth=depth,
        achieved_ii=achieved,
        latency=latency,
        limiting_factor=limiting,
    )
