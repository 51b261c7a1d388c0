"""DDR4 channel timing with a gather-locality (row-buffer) model.

FEM gather/scatter is the hard part of the paper's memory system: the
LOAD-element task reads node data through an indirection (the element
connectivity), so DRAM row-buffer locality — and with it the effective
access cost — depends on the *footprint* of the mesh arrays. This
produces the super-linear execution-time growth the paper measures
(3.4x time for 3x nodes between 1.4M and 4.2M in Fig. 5).

Model: each gather access either hits the open row (short, pipelined
burst) or misses (pays an activate/precharge penalty). The hit rate
falls logarithmically with footprint — the standard first-order model of
reuse-distance growth on a fixed row-buffer — clamped to a plausible
band. Constants are documented where defined and exercised by the
calibration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import FPGAError


@dataclass(frozen=True)
class DDRTimings:
    """Access costs in *kernel* clock cycles.

    Expressed in kernel cycles (not memory-controller cycles) so the
    dataflow simulator can use them directly; defaults assume a 150 MHz
    kernel clock against DDR4-2400 (the paper's shell configuration).
    """

    #: Cycles for a row-buffer-hit access of one node bundle.
    row_hit_cycles: float = 2.0
    #: Cycles for a row-miss access (activate + CAS + restore).
    row_miss_cycles: float = 20.0
    #: Fixed cycles to issue one burst command (address phase).
    burst_setup_cycles: float = 4.0
    #: Payload bytes transferred per kernel cycle on one channel
    #: (64-bit DDR4-2400 ~= 19.2 GB/s peak = 128 B/cycle at 150 MHz).
    bytes_per_cycle: float = 128.0

    def __post_init__(self) -> None:
        if self.row_hit_cycles <= 0 or self.row_miss_cycles <= 0:
            raise FPGAError("DDR access cycles must be positive")
        if self.row_miss_cycles < self.row_hit_cycles:
            raise FPGAError("row miss cannot be cheaper than row hit")
        if self.bytes_per_cycle <= 0:
            raise FPGAError("bytes_per_cycle must be positive")


#: Default channel model for the paper's configuration.
DDR4_2400 = DDRTimings()

# -- gather locality model ----------------------------------------------------

#: Hit rate when the gathered arrays fit comfortably in a few rows.
GATHER_HIT_RATE_MAX = 0.92
#: Floor: structured-mesh connectivity always preserves some locality.
GATHER_HIT_RATE_MIN = 0.55
#: Hit rate at the 1M-node reference footprint.
GATHER_HIT_RATE_AT_1M_NODES = 0.815
#: Hit-rate loss per decade of footprint growth. Calibrated so the
#: per-element LOAD cost grows ~13% from 1.4M to 4.2M nodes, matching
#: Fig. 5's 3.4x time growth for 3x nodes.
GATHER_HIT_RATE_SLOPE_PER_DECADE = 0.086
_REFERENCE_NODES = 1_000_000


def gather_hit_rate(num_nodes: int) -> float:
    """Row-buffer hit rate of indexed gather at the given mesh size."""
    if num_nodes < 1:
        raise FPGAError("num_nodes must be >= 1")
    raw = GATHER_HIT_RATE_AT_1M_NODES - GATHER_HIT_RATE_SLOPE_PER_DECADE * (
        math.log10(num_nodes / _REFERENCE_NODES)
    )
    return min(GATHER_HIT_RATE_MAX, max(GATHER_HIT_RATE_MIN, raw))


def gather_access_cycles(num_nodes: int, timings: DDRTimings = DDR4_2400) -> float:
    """Mean kernel cycles per indexed gather access at this footprint."""
    hit = gather_hit_rate(num_nodes)
    return hit * timings.row_hit_cycles + (1.0 - hit) * timings.row_miss_cycles


def streaming_cycles(
    num_bytes: float, timings: DDRTimings = DDR4_2400
) -> float:
    """Cycles for one contiguous burst of ``num_bytes`` on one channel."""
    if num_bytes < 0:
        raise FPGAError("num_bytes must be >= 0")
    if num_bytes == 0:
        return 0.0
    return timings.burst_setup_cycles + math.ceil(
        num_bytes / timings.bytes_per_cycle
    )
