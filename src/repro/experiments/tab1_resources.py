"""Table I — post-P&R resource utilization percentages.

Paper values:

====================  =====  =====  =====  =====  =====
Design                 FF%    LUT%   BRAM%  URAM%  DSP%
====================  =====  =====  =====  =====  =====
Vitis Opt. @100MHz    17.19  27.68  22.96   0.73   9.17
Proposed   @150MHz    25.29  41.15  43.98  11.77  18.23
====================  =====  =====  =====  =====  =====

Key shapes: the proposed design uses more of *every* resource; the URAM
ratio is the outlier (~16x — Vitis treats URAM as scarce, the proposed
design stages element batches there); every other resource grows by at
most ~2x; nothing exceeds half the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel.designs import (
    AcceleratorDesign,
    proposed_design,
    vitis_baseline_design,
)
from ..accel.reports import TABLE1_COLUMNS, table1_row
from ..errors import ExperimentError

#: Paper Table I rows.
PAPER_TABLE1 = {
    "vitis-optimized": {
        "FF": 17.19,
        "LUT": 27.68,
        "BRAM": 22.96,
        "URAM": 0.73,
        "DSP": 9.17,
    },
    "proposed": {
        "FF": 25.29,
        "LUT": 41.15,
        "BRAM": 43.98,
        "URAM": 11.77,
        "DSP": 18.23,
    },
}


@dataclass
class Tab1Result:
    """Modeled Table I plus the designs it came from."""

    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    clocks_mhz: dict[str, float] = field(default_factory=dict)

    def ratio(self, column: str) -> float:
        """proposed / vitis utilization ratio of one resource."""
        try:
            return (
                self.rows["proposed"][column]
                / self.rows["vitis-optimized"][column]
            )
        except KeyError:
            raise ExperimentError(f"missing column {column!r}") from None

    def all_below(self, percent: float) -> bool:
        """True when every cell is below the given percentage."""
        return all(
            value < percent
            for row in self.rows.values()
            for value in row.values()
        )


def run_tab1(
    proposed: AcceleratorDesign | None = None,
    vitis: AcceleratorDesign | None = None,
) -> Tab1Result:
    """Compute both Table I rows from the design models."""
    proposed = proposed if proposed is not None else proposed_design()
    vitis = vitis if vitis is not None else vitis_baseline_design()
    result = Tab1Result()
    for design in (vitis, proposed):
        result.rows[design.options.name] = table1_row(design)
        result.clocks_mhz[design.options.name] = design.clock_mhz
    return result


def render_tab1(result: Tab1Result) -> str:
    """Model table followed by the paper's values."""
    lines = [
        "Table I — post-P&R resource utilization (model)",
        f"{'Design':<28}" + "".join(f"{c + '%':>9}" for c in TABLE1_COLUMNS),
    ]
    for name, row in result.rows.items():
        label = f"{name}@{result.clocks_mhz[name]:.0f}MHz"
        lines.append(
            f"{label:<28}" + "".join(f"{row[c]:>9.2f}" for c in TABLE1_COLUMNS)
        )
    lines.append("")
    lines.append("paper values:")
    for name, row in PAPER_TABLE1.items():
        lines.append(
            f"{name:<28}" + "".join(f"{row[c]:>9.2f}" for c in TABLE1_COLUMNS)
        )
    return "\n".join(lines)
