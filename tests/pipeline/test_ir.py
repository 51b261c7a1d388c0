"""Operator pipeline IR: structure, validation, rewrites, lowering."""

import pytest

from repro.errors import PipelineError
from repro.pipeline import (
    OperatorPipeline,
    Stage,
    element_pipeline,
    fuse_flux_divergence,
    navier_stokes_pipeline,
    share_loads,
)


def stage(name, role="compute", kernel="k", inputs=(), outputs=None, **kw):
    return Stage(
        name,
        role=role,
        kernel=kernel,
        inputs=tuple(inputs),
        outputs=tuple(outputs if outputs is not None else (f"{name}_out",)),
        **kw,
    )


class TestStage:
    def test_role_validated(self):
        with pytest.raises(PipelineError):
            stage("s", role="transmogrify")

    def test_output_required(self):
        with pytest.raises(PipelineError):
            Stage("s", role="compute", kernel="k", inputs=(), outputs=())


class TestPipelineStructure:
    def test_duplicate_stage_rejected(self):
        p = OperatorPipeline("p")
        p.add_stage(stage("a"))
        with pytest.raises(PipelineError):
            p.add_stage(stage("a"))

    def test_duplicate_producer_rejected(self):
        p = OperatorPipeline("p")
        p.add_stage(stage("a", outputs=("x",)))
        with pytest.raises(PipelineError):
            p.add_stage(stage("b", outputs=("x",)))

    def test_cycle_rejected(self):
        p = OperatorPipeline("p")
        p.stages.append(stage("a", inputs=("y",), outputs=("x",)))
        p.stages.append(stage("b", inputs=("x",), outputs=("y",)))
        with pytest.raises(PipelineError):
            p.validate()

    def test_external_inputs_and_outputs(self):
        p = navier_stokes_pipeline("none")
        assert p.external_inputs() == ["state"]
        assert set(p.output_payloads()) == {
            "assembled_convection",
            "assembled_diffusion",
        }

    def test_broadcast_payload_allowed(self):
        """The IR allows one payload to feed two consumers (shared gather)."""
        p = navier_stokes_pipeline("gather")
        consumers = {s.name for s in p.consumers_of("elem_state")}
        assert consumers == {"convective_flux", "viscous_flux"}
        p.validate()

    def test_describe_lists_every_stage(self):
        p = navier_stokes_pipeline("full")
        text = p.describe()
        for s in p.stages:
            assert s.name in text


class TestTopologicalOrder:
    @pytest.mark.parametrize("fusion", ["none", "gather", "full"])
    def test_every_stage_follows_its_producers(self, fusion):
        p = navier_stokes_pipeline(fusion)
        order = p.topological_order()
        assert sorted(s.name for s in order) == sorted(s.name for s in p.stages)
        position = {s.name: i for i, s in enumerate(order)}
        produced_by = {out: s.name for s in p.stages for out in s.outputs}
        for s in p.stages:
            for name in s.inputs:
                if name in produced_by:
                    assert position[produced_by[name]] < position[s.name]

    def test_consumer_declared_first_sorts_after_producer(self):
        """Sources queue in stage order (``a`` before ``d``); ``c`` waits
        for both of its producers."""
        p = OperatorPipeline("p")
        p.add_stage(stage("c", inputs=("a_out", "b_out")))
        p.add_stage(stage("b", inputs=("a_out",)))
        p.add_stage(stage("a"))
        p.add_stage(stage("d"))
        assert [s.name for s in p.topological_order()] == ["a", "d", "b", "c"]

    def test_cycle_raises_pipeline_error(self):
        p = OperatorPipeline("p")
        p.stages.append(stage("a", inputs=("y",), outputs=("x",)))
        p.stages.append(stage("b", inputs=("x",), outputs=("y",)))
        with pytest.raises(PipelineError, match="contains a cycle"):
            p.topological_order()


class TestFusionRewrites:
    def test_base_pipeline_has_two_passes(self):
        p = navier_stokes_pipeline("none")
        loads = [s for s in p.stages if s.role == "load"]
        stores = [s for s in p.stages if s.role == "store"]
        assert len(loads) == 2 and len(stores) == 2

    def test_share_loads_merges_gathers(self):
        p = navier_stokes_pipeline("gather")
        loads = [s for s in p.stages if s.role == "load"]
        assert len(loads) == 1
        assert loads[0].phase == "rk.other"
        # separate stores survive (the historical fused=True behaviour)
        assert len([s for s in p.stages if s.role == "store"]) == 2

    def test_full_fusion_is_single_chain(self):
        p = navier_stokes_pipeline("full")
        assert [s.kernel for s in p.topological_order()] == [
            "gather",
            "combined_flux",
            "weak_divergence",
            "scatter_add",
        ]
        assert all(s.phase == "rk.fused" for s in p.stages)

    def test_rewrites_do_not_mutate_base(self):
        base = navier_stokes_pipeline("none")
        before = [s.name for s in base.stages]
        share_loads(base)
        fuse_flux_divergence(navier_stokes_pipeline("gather"))
        assert [s.name for s in base.stages] == before

    def test_fuse_requires_shared_gather(self):
        with pytest.raises(PipelineError):
            fuse_flux_divergence(navier_stokes_pipeline("none"))

    def test_unknown_fusion_rejected(self):
        with pytest.raises(PipelineError):
            navier_stokes_pipeline("everything")


class TestLowering:
    def test_role_groups_of_fused_pipeline(self):
        groups = element_pipeline().role_groups()
        assert [(role, len(stages)) for role, stages in groups] == [
            ("load", 1),
            ("compute", 2),
            ("store", 1),
        ]

    def test_multi_branch_pipeline_groups_whole_branches(self):
        """fusion='none' still lowers: role condensation merges the two
        parallel passes into the hardware's LOAD/COMPUTE/STORE tasks
        (grouping *is* the merge the accelerator performs)."""
        groups = navier_stokes_pipeline("none").role_groups()
        assert [(role, len(stages)) for role, stages in groups] == [
            ("load", 2),
            ("compute", 4),
            ("store", 2),
        ]

    def test_grouping_is_insertion_order_independent(self):
        """Condensation groups by role over the DAG, so declaring the
        base pipeline branch-by-branch (load, compute, compute, store,
        load, ...) lowers identically to the pass-by-pass declaration."""
        base = navier_stokes_pipeline("none")
        reordered = OperatorPipeline("reordered")
        reordered.payloads = dict(base.payloads)
        conv = [s for s in base.stages if s.phase == "rk.convection"]
        diff = [s for s in base.stages if s.phase == "rk.diffusion"]
        for s in conv + diff:
            reordered.add_stage(s)
        assert [
            (role, sorted(s.name for s in stages))
            for role, stages in reordered.role_groups()
        ] == [
            (role, sorted(s.name for s in stages))
            for role, stages in base.role_groups()
        ]

    def test_non_chain_role_sequence_rejected(self):
        """A pipeline whose topological role sequence re-enters a role
        (compute -> store -> compute) cannot map onto the element task
        chain."""
        p = OperatorPipeline("zigzag")
        p.add_stage(stage("c1", role="compute", inputs=(), outputs=("a",)))
        p.add_stage(stage("s1", role="store", inputs=("a",), outputs=("b",)))
        p.add_stage(stage("c2", role="compute", inputs=("b",), outputs=("c",)))
        with pytest.raises(PipelineError):
            p.role_groups()

    def test_task_graph_matches_fig1_chain(self):
        p = element_pipeline()
        cycles = {s.name: 10.0 for s in p.stages}
        graph = p.to_task_graph(cycles)
        assert graph.topological_order() == [
            "load_element",
            "compute_diffusion_convection",
            "store_element_contribution",
        ]
        graph.validate()
        # compute groups two stages: its latency is the group sum
        assert graph.tasks["compute_diffusion_convection"].latency == 20
        assert graph.tasks["load_element"].kind == "load"

    def test_task_graph_requires_every_stage_cycle(self):
        p = element_pipeline()
        with pytest.raises(PipelineError):
            p.to_task_graph({"load_convection": 1.0})

    def test_block_sizes_scale_latency_per_iteration(self):
        """Block tokens carry the per-element group latency scaled by
        that iteration's block size (II scaled per block)."""
        p = element_pipeline()
        cycles = {s.name: 10.0 for s in p.stages}
        graph = p.to_task_graph(cycles, block_sizes=[4, 4, 3])
        compute = graph.tasks["compute_diffusion_convection"]
        assert compute.latency_at(0) == 80  # 20 cycles/element * 4
        assert compute.latency_at(2) == 60  # short tail block
        assert graph.tasks["load_element"].latency_at(1) == 40

    def test_block_sizes_must_be_positive(self):
        p = element_pipeline()
        cycles = {s.name: 10.0 for s in p.stages}
        with pytest.raises(PipelineError):
            p.to_task_graph(cycles, block_sizes=[4, 0])

    def test_task_names_allow_per_cu_prefixing(self):
        p = element_pipeline()
        cycles = {s.name: 10.0 for s in p.stages}
        graph = p.to_task_graph(
            cycles,
            task_names={
                role: f"cu1.{name}"
                for role, name in (
                    ("load", "load_element"),
                    ("compute", "compute_diffusion_convection"),
                    ("store", "store_element_contribution"),
                )
            },
        )
        assert graph.topological_order() == [
            "cu1.load_element",
            "cu1.compute_diffusion_convection",
            "cu1.store_element_contribution",
        ]
