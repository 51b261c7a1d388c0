"""Ablation benches: the contribution of each paper optimization.

Quantifies the design choices the paper calls out — element TLP,
node TLP, per-array AXI assignment, RKU interface decoupling, and the
SLR split — by removing one at a time at the paper's 4.2M-node scale.
"""

import pytest

from repro.experiments.ablation_study import (
    render_ablation_study,
    run_ablation_study,
)


def test_ablation_study(benchmark, proposed):
    result = benchmark(
        lambda: run_ablation_study(num_nodes=4_200_000, proposed=proposed)
    )
    print()
    print(render_ablation_study(result))

    # every optimization contributes measurably
    for name in result.variants:
        assert result.slowdown(name) > 1.05, name
    # the memory-system optimizations are the heavyweights
    assert result.slowdown("single-load-interface") > 1.8
    assert result.slowdown("shared-slr") > 1.3

    for name in result.variants:
        benchmark.extra_info[f"slowdown_{name}"] = round(
            result.slowdown(name), 2
        )


@pytest.mark.parametrize(
    "name",
    ["no-element-tlp", "no-node-tlp", "single-load-interface", "coupled-rku", "shared-slr"],
)
def test_single_ablation_build(benchmark, name):
    """Each ablated design must build and evaluate standalone."""
    from repro.accel.ablations import ablated_design
    from repro.accel.cosim import design_timing

    design = benchmark(lambda: ablated_design(name))
    assert design_timing(design, 1_400_000).rk_step_seconds > 0
