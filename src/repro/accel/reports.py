"""Design report rendering: Table I rows and power splits."""

from __future__ import annotations

from .designs import AcceleratorDesign

#: Column order of the paper's Table I.
TABLE1_COLUMNS = ("FF", "LUT", "BRAM", "URAM", "DSP")


def table1_row(design: AcceleratorDesign) -> dict[str, float]:
    """One Table I row: post-P&R utilization percentages."""
    util = design.utilization()
    return {col: util[col] for col in TABLE1_COLUMNS}


def render_table1(designs: list[AcceleratorDesign]) -> str:
    """The paper's Table I for a list of designs."""
    header = f"{'Design':<28}" + "".join(f"{c + '%':>9}" for c in TABLE1_COLUMNS)
    lines = [header, "-" * len(header)]
    for design in designs:
        row = table1_row(design)
        label = f"{design.options.name}@{design.clock_mhz:.0f}MHz"
        lines.append(
            f"{label:<28}" + "".join(f"{row[c]:>9.2f}" for c in TABLE1_COLUMNS)
        )
    return "\n".join(lines)


def render_power_report(design: AcceleratorDesign) -> str:
    """Power split of one design (Section IV-B style)."""
    report = design.power_report()
    return "\n".join(
        [
            f"power report: {design.options.name} @ {design.clock_mhz:.0f} MHz",
            f"  core application : {report.core_w:8.2f} W",
            f"  peripherals      : {report.peripherals_w:8.2f} W",
            f"  rest of system   : {report.rest_w:8.2f} W",
            f"  total            : {report.total_w:8.2f} W",
        ]
    )
