"""The proposed design and Vitis baseline (structure + headline shapes)."""

import pytest

from repro.accel.designs import (
    PROPOSED_OPTIONS,
    VITIS_BASELINE_OPTIONS,
    custom_design,
)
from repro.errors import HLSError


class TestProposedStructure:
    def test_fig3_slr_partitioning(self, proposed):
        """RKL on the DDR-attached SLR, RKU behind the SLL (Fig. 3)."""
        assert proposed.floorplan.assignments["rkl0"] == "SLR0"
        assert proposed.floorplan.assignments["rku"] == "SLR1"
        assert proposed.floorplan.crossings("rkl0") == 0
        assert proposed.floorplan.crossings("rku") == 1

    def test_four_load_interfaces(self, proposed):
        assert proposed.memory_assignment.num_interfaces == 4

    def test_dse_reaches_low_node_ii(self, proposed):
        _fill, ii = proposed.compute_task_cycles()
        assert ii <= 3

    def test_clock_150(self, proposed):
        assert proposed.clock_mhz == 150.0

    def test_element_pipeline_is_memory_bound_at_scale(self, proposed):
        """After the DSE, the LOAD task carries the II at paper-scale
        meshes — the state Section III-D ends in ("no further
        optimization could be achieved")."""
        cycles = proposed.rkl_element_cycles(4_200_000)
        assert cycles["load"] >= cycles["compute"]
        assert cycles["load"] >= cycles["store"]

    def test_summary_renders(self, proposed):
        text = proposed.summary()
        assert "proposed" in text and "150" in text


class TestBaselineStructure:
    def test_single_slr_and_interface(self, vitis):
        assert vitis.floorplan.assignments == {
            "rkl0": "SLR0",
            "rku": "SLR0",
        }
        assert vitis.memory_assignment.num_interfaces == 1

    def test_clock_100(self, vitis):
        assert vitis.clock_mhz == 100.0

    def test_merged_loop_recurrence_bound(self, vitis):
        sched = vitis.node_schedules["node_merged"]
        assert sched.achieved_ii == 12
        assert sched.limiting_factor == "recurrence"

    def test_sequential_element_cost_is_sum(self, vitis):
        cycles = vitis.rkl_element_cycles(1_000_000)
        assert vitis.rkl_element_ii(1_000_000) == pytest.approx(
            sum(cycles.values())
        )


class TestComparisons:
    def test_proposed_ii_below_baseline(self, proposed, vitis):
        for nodes in (5_000, 1_400_000, 4_200_000):
            assert proposed.rkl_element_ii(nodes) < vitis.rkl_element_ii(
                nodes
            )

    def test_proposed_uses_more_of_every_resource(self, proposed, vitis):
        p = proposed.utilization()
        v = vitis.utilization()
        for key in p:
            assert p[key] > v[key], key

    def test_rku_decoupling_effect(self, proposed, vitis):
        n = 1_000_000
        prop_cycles = proposed.rku_step_cycles(n)
        base_cycles = vitis.rku_step_cycles(n)
        # coupled: recurrence II 11; decoupled: port-limited II 2
        assert base_cycles / prop_cycles == pytest.approx(5.5, rel=0.01)

    def test_resources_fit_their_slrs(self, proposed, vitis):
        proposed.floorplan.validate()
        vitis.floorplan.validate()


class TestCustomDesigns:
    def test_invalid_strategy_rejected(self):
        from dataclasses import replace

        with pytest.raises(HLSError):
            replace(PROPOSED_OPTIONS, directive_strategy="magic")

    def test_options_frozen_identities(self):
        assert PROPOSED_OPTIONS.element_dataflow
        assert not VITIS_BASELINE_OPTIONS.element_dataflow
        assert VITIS_BASELINE_OPTIONS.directive_strategy == "vitis-auto"
