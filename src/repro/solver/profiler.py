"""Phase-attributed wall-clock profiling (regenerates paper Fig. 2).

The paper profiles its C++ solver and finds the RK method dominating
(76.5 % on average), with Diffusion (39.2 %) and Convection (21.04 %) the
top hotspots. :class:`PhaseProfiler` instruments our functional solver the
same way: named phases, context-manager scoping, and a percentage
breakdown compatible with the paper's categories.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..errors import SolverError


@dataclass
class PhaseBreakdown:
    """Execution-time shares by category (fractions summing to 1)."""

    rk_diffusion: float
    rk_convection: float
    rk_other: float
    non_rk: float

    def __post_init__(self) -> None:
        total = self.rk_diffusion + self.rk_convection + self.rk_other + self.non_rk
        if abs(total - 1.0) > 1e-9:
            raise SolverError(f"breakdown fractions must sum to 1, got {total}")

    @property
    def rk_total(self) -> float:
        """Share of the whole RK method (the accelerated region)."""
        return self.rk_diffusion + self.rk_convection + self.rk_other

    def as_percentages(self) -> dict[str, float]:
        """Category -> percentage, for report printing."""
        return {
            "RK(Diffusion)": 100.0 * self.rk_diffusion,
            "RK(Convection)": 100.0 * self.rk_convection,
            "RK(Other)": 100.0 * self.rk_other,
            "Non-RK": 100.0 * self.non_rk,
        }


#: The paper's measured Fig. 2 breakdown.
PAPER_FIG2_BREAKDOWN = PhaseBreakdown(
    rk_diffusion=0.392,
    rk_convection=0.2104,
    rk_other=0.1613,
    non_rk=0.2363,
)


class PhaseProfiler:
    """Accumulates wall-clock time into named phases.

    Phases may nest; only the innermost active phase accrues time, so the
    totals partition wall-clock without double counting.
    """

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._stack: list[tuple[str, float]] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute the enclosed wall-clock time to ``name``."""
        now = time.perf_counter()
        if self._stack:
            parent, started = self._stack[-1]
            self._totals[parent] = self._totals.get(parent, 0.0) + (now - started)
        self._stack.append((name, now))
        try:
            yield
        finally:
            end = time.perf_counter()
            name_done, started = self._stack.pop()
            self._totals[name_done] = self._totals.get(name_done, 0.0) + (
                end - started
            )
            if self._stack:
                parent, _ = self._stack[-1]
                self._stack[-1] = (parent, end)

    def total(self, name: str) -> float:
        """Accumulated seconds for one phase (0.0 if never entered)."""
        return self._totals.get(name, 0.0)

    def totals(self) -> dict[str, float]:
        """Copy of all accumulated phase totals."""
        return dict(self._totals)

    def grand_total(self) -> float:
        """Sum over all phases."""
        return sum(self._totals.values())

    def breakdown(self) -> PhaseBreakdown:
        """Fold phase totals into the paper's Fig. 2 categories.

        Phases named ``rk.diffusion`` / ``rk.convection`` map directly;
        any other ``rk.*`` phase counts as RK(Other); everything else is
        Non-RK.
        """
        total = self.grand_total()
        if total <= 0:
            raise SolverError("no profiled time to break down")
        diff = conv = other = non = 0.0
        for name, secs in self._totals.items():
            if name == "rk.diffusion":
                diff += secs
            elif name == "rk.convection":
                conv += secs
            elif name.startswith("rk."):
                other += secs
            else:
                non += secs
        return PhaseBreakdown(
            rk_diffusion=diff / total,
            rk_convection=conv / total,
            rk_other=other / total,
            non_rk=non / total,
        )

    def report(self) -> str:
        """Human-readable phase table sorted by time."""
        total = self.grand_total()
        lines = ["phase                          seconds    share"]
        for name, secs in sorted(self._totals.items(), key=lambda kv: -kv[1]):
            share = 100.0 * secs / total if total > 0 else 0.0
            lines.append(f"{name:<28} {secs:>10.4f} {share:>7.2f}%")
        lines.append(f"{'total':<28} {total:>10.4f} {100.0:>7.2f}%")
        return "\n".join(lines)
