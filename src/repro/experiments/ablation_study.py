"""Ablation study: the contribution of each paper optimization.

Not a paper artifact — these are the design choices worth quantifying:
element TLP (Section III-B), node TLP (Fig. 3, stages 2a-2c), per-array
AXI assignment (Section III-C), decoupled RKU interfaces (Section
III-C), and the SLR split (Section III-A). Each
ablation removes exactly one of them and reports the resulting slowdown
at a reference mesh size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel.ablations import all_ablations
from ..accel.cosim import design_timing
from ..accel.designs import AcceleratorDesign, proposed_design
from ..errors import ExperimentError

#: Reference mesh for the ablation numbers (the paper's CPU-comparison
#: size).
DEFAULT_ABLATION_NODES = 4_200_000


@dataclass
class AblationResult:
    """Step time of the full design and each ablated variant."""

    num_nodes: int
    proposed_seconds: float
    variants: dict[str, float] = field(default_factory=dict)

    def slowdown(self, name: str) -> float:
        """Ablated / proposed step-time ratio (>= 1 means the
        optimization helps)."""
        try:
            return self.variants[name] / self.proposed_seconds
        except KeyError:
            raise ExperimentError(f"unknown ablation {name!r}") from None


def run_ablation_study(
    num_nodes: int = DEFAULT_ABLATION_NODES,
    proposed: AcceleratorDesign | None = None,
) -> AblationResult:
    """Time every ablated variant at the given mesh size."""
    proposed = proposed if proposed is not None else proposed_design()
    base = design_timing(proposed, num_nodes).rk_step_seconds
    result = AblationResult(num_nodes=num_nodes, proposed_seconds=base)
    for name, design in all_ablations().items():
        result.variants[name] = design_timing(
            design, num_nodes
        ).rk_step_seconds
    return result


def render_ablation_study(result: AblationResult) -> str:
    """Readable ablation table."""
    lines = [
        f"Ablation study at {result.num_nodes} nodes "
        f"(proposed: {result.proposed_seconds:.3f} s/step)",
        f"{'ablation':<26}{'s/step':>10}{'slowdown':>10}",
        "-" * 46,
    ]
    for name in sorted(result.variants):
        secs = result.variants[name]
        lines.append(
            f"{name:<26}{secs:>10.3f}{result.slowdown(name):>9.2f}x"
        )
    return "\n".join(lines)
