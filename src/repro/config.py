"""Cycles-to-seconds conversion and the paper's mesh node counts.

The library spans two worlds: a *functional* CFD solver (SI-ish units,
nondimensionalized by the Taylor-Green reference scales) and a *timing*
world (cycles, hertz, bytes). This module holds the cycles-to-seconds
conversion so the two worlds never disagree on what a clock cycle costs.
"""

from __future__ import annotations

from .errors import ConfigurationError


def seconds_from_cycles(cycles: float, frequency_hz: float) -> float:
    """Wall-clock seconds taken by ``cycles`` at ``frequency_hz``."""
    if frequency_hz <= 0:
        raise ConfigurationError(f"frequency must be positive, got {frequency_hz}")
    return float(cycles) / float(frequency_hz)


# Mesh node counts evaluated in the paper (Fig. 5 x-axis).
PAPER_FIG5_NODE_COUNTS = (
    5_000,
    275_000,
    1_400_000,
    2_100_000,
    3_000_000,
    4_200_000,
)

# Mesh node counts used for the CPU profiling breakdown (Fig. 2: 1M-4M).
PAPER_FIG2_NODE_COUNTS = (1_000_000, 2_000_000, 3_000_000, 4_000_000)

# The "real-world scenario" mesh used in the CPU comparison (Section IV-B).
PAPER_CPU_COMPARISON_NODES = 4_200_000
