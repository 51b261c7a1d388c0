"""Off-chip memory ports and the cost of access through AXI.

The paper's Section III-C optimizations start here: every off-chip
array is a :class:`MemoryPort` mapped to an ``m_axi`` interface
(Fig. 4; the assignment lives in :mod:`repro.accel.interfaces`, the
per-interface contention cost in
:meth:`repro.accel.designs.AcceleratorDesign.load_task_cycles`), and
decoupling a load and store onto separate interfaces lets an update
loop pipeline (:func:`update_loop_ii`).

Costs are reported in kernel cycles for one *task iteration* (one
element for RKL, one node block for RKU).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FPGAError
from .ddr import DDRTimings, DDR4_2400, streaming_cycles

#: Bytes of one fp32 value.
FP32_BYTES = 4


@dataclass(frozen=True)
class MemoryPort:
    """Off-chip traffic of one array during one task iteration.

    Attributes
    ----------
    array:
        Array (and host buffer) name.
    pattern:
        ``gather`` — indexed accesses through the element connectivity
        (row-locality-limited); ``stream`` — contiguous burst.
    accesses_per_iter:
        Gather: number of indexed accesses; stream: ignored.
    values_per_iter:
        Total fp32 values moved per task iteration.
    is_write:
        Direction (affects the decoupling analysis, not the cycle cost).
    """

    array: str
    pattern: str
    values_per_iter: float
    accesses_per_iter: float = 0.0
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.pattern not in ("gather", "stream"):
            raise FPGAError(
                f"port {self.array!r}: pattern must be gather|stream, "
                f"got {self.pattern!r}"
            )
        if self.values_per_iter < 0 or self.accesses_per_iter < 0:
            raise FPGAError(f"port {self.array!r}: negative traffic")
        if self.pattern == "gather" and self.accesses_per_iter <= 0:
            raise FPGAError(
                f"port {self.array!r}: gather ports need accesses_per_iter"
            )


def burst_cycles(
    values: float,
    timings: DDRTimings = DDR4_2400,
) -> float:
    """Cycles for one contiguous burst of fp32 values."""
    return streaming_cycles(values * FP32_BYTES, timings)


def update_loop_ii(
    decoupled: bool,
    read_latency_cycles: int = 8,
) -> int:
    """II of an ``x[i] <- f(x[i], y[i])`` update loop (Section III-C).

    With a single AXI interface serving both the read and the write of
    ``x``, the write of iteration ``i`` must retire before the read of
    ``i+1`` can issue on the same interface — an inter-iteration
    dependency of roughly the interface round-trip. Decoupling the load
    and store onto separate interfaces removes the dependency and lets
    the loop pipeline at II = 1.
    """
    if read_latency_cycles < 1:
        raise FPGAError("read_latency_cycles must be >= 1")
    return 1 if decoupled else 1 + read_latency_cycles
