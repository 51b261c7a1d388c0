"""Loop-nest IR: what an HLS kernel body looks like to the scheduler.

A :class:`LoopNest` is a (possibly flattened) counted loop with

- per-iteration operation counts by operator class,
- per-iteration accesses to named on-chip arrays,
- an optional loop-carried recurrence (min II bound),
- an optional explicit pipeline depth (estimated from the op mix
  otherwise).

The paper's Section III-D procedure manipulates exactly these properties:
"for-loops with a high trip count and multiple operations in the loop
body" get pipelined; small trip counts get fully unrolled; arrays get
partitioned to feed the unrolled/pipelined datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import HLSError
from .ops import op_spec, validate_op_counts


@dataclass(frozen=True)
class ArrayAccess:
    """Per-iteration access pattern of one on-chip array."""

    array: str
    reads_per_iter: float = 0.0
    writes_per_iter: float = 0.0

    def __post_init__(self) -> None:
        if self.reads_per_iter < 0 or self.writes_per_iter < 0:
            raise HLSError(f"array {self.array!r}: negative access count")

    @property
    def total_per_iter(self) -> float:
        return self.reads_per_iter + self.writes_per_iter


@dataclass
class LoopNest:
    """One schedulable loop.

    Attributes
    ----------
    name:
        Loop label (matches the paper's task naming, e.g.
        ``compute_gradients``).
    trip_count:
        Iterations of the (flattened) loop.
    ops_per_iter:
        Operator class -> count per iteration.
    accesses:
        On-chip array access patterns.
    recurrence_ii:
        Minimum II due to a loop-carried dependence (1 when none). The
        decoupled-interface optimization of Section III-C removes such a
        recurrence on ``x[i] <- f(x[i], y[i])`` update loops.
    depth:
        Explicit pipeline depth override; estimated from the op mix when
        ``None``.
    """

    name: str
    trip_count: int
    ops_per_iter: dict[str, float] = field(default_factory=dict)
    accesses: list[ArrayAccess] = field(default_factory=list)
    recurrence_ii: int = 1
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.trip_count < 1:
            raise HLSError(f"loop {self.name!r}: trip_count must be >= 1")
        if self.recurrence_ii < 1:
            raise HLSError(f"loop {self.name!r}: recurrence_ii must be >= 1")
        validate_op_counts(self.ops_per_iter)
        seen = set()
        for acc in self.accesses:
            if acc.array in seen:
                raise HLSError(
                    f"loop {self.name!r}: duplicate access entry for "
                    f"array {acc.array!r}"
                )
            seen.add(acc.array)
        if self.depth is not None and self.depth < 1:
            raise HLSError(f"loop {self.name!r}: depth must be >= 1")

    # -- derived -----------------------------------------------------------

    def estimated_depth(self) -> int:
        """Pipeline depth estimate: one serial trip through each operator
        class present in the body (a single dependence chain), plus one
        cycle of loop control. Used when no explicit depth is given."""
        if self.depth is not None:
            return self.depth
        chain = sum(
            op_spec(name).latency for name, count in self.ops_per_iter.items()
            if count > 0
        )
        return max(1, chain + 1)
