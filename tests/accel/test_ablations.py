"""Ablated design variants."""

import pytest

from repro.accel.ablations import ABLATION_VARIANTS, ablated_design
from repro.accel.cosim import design_timing

REFERENCE_NODES = 1_400_000


class TestAblations:
    @pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
    def test_every_ablation_slower_than_proposed(self, name, proposed):
        design = ablated_design(name)
        base = design_timing(proposed, REFERENCE_NODES).rk_step_seconds
        ablated = design_timing(design, REFERENCE_NODES).rk_step_seconds
        assert ablated > base, name

    def test_shared_slr_drops_clock(self):
        design = ablated_design("shared-slr")
        assert design.clock_mhz < 150.0

    def test_single_interface_serializes_load(self, proposed):
        """All seven load ports on one bundle: ~2.6x the balanced
        4-interface assignment (whose worst bundle carries two gathers)."""
        design = ablated_design("single-load-interface")
        n = REFERENCE_NODES
        assert design.load_task_cycles(n) > proposed.load_task_cycles(n) * 2.4

    def test_coupled_rku_raises_update_ii(self, proposed):
        design = ablated_design("coupled-rku")
        n = REFERENCE_NODES
        assert design.rku_step_cycles(n) > 5 * proposed.rku_step_cycles(n)

    def test_no_node_tlp_brings_back_recurrence(self):
        design = ablated_design("no-node-tlp")
        sched = design.node_schedules["node_merged"]
        assert sched.achieved_ii >= 12

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            ablated_design("no-such-ablation")
