"""Functional and streaming execution of the operator pipeline."""

from dataclasses import replace

import numpy as np
import pytest

import repro.solver.navier_stokes as ns_module
from repro.accel.cosim import _rkl_actions
from repro.errors import PipelineError
from repro.mesh.hexmesh import channel_mesh, periodic_box_mesh
from repro.mesh.partition import (
    element_blocks,
    partition_elements_balanced,
    slice_blocks,
)
from repro.physics.channel import decaying_shear_initial
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from repro.pipeline import (
    PipelineContext,
    RKUpdateContext,
    assembled_total,
    element_residuals,
    navier_stokes_pipeline,
    rk_update_pipeline,
    run_pipeline,
    streaming_actions,
    streaming_plan,
)
from repro.solver.navier_stokes import NavierStokesOperator
from repro.solver.profiler import PhaseProfiler


@pytest.fixture(scope="module")
def setup():
    mesh = periodic_box_mesh(2, 3)
    op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
    stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
    return mesh, op, stacked


def _flow_case(geometry):
    """An 8-element mesh and a smooth state on it."""
    if geometry == "channel":
        mesh = channel_mesh(2, 2)
        return mesh, decaying_shear_initial(mesh.coords, DEFAULT_TGV)
    mesh = periodic_box_mesh(2, 2)
    if geometry == "curved":
        # The cross-coordinate corner perturbation of the backend parity
        # suite: non-affine metric terms on every element.
        corners = mesh.corner_coords.copy()
        x, y, z = (mesh.corner_coords[..., i] for i in range(3))
        corners[..., 0] += 0.05 * np.sin(y * z / 4.0 + 0.3)
        corners[..., 1] += 0.05 * np.sin(z * x / 4.0 + 0.7)
        corners[..., 2] += 0.05 * np.sin(x * y / 4.0 + 1.1)
        mesh = replace(mesh, corner_coords=corners)
    return mesh, taylor_green_initial(mesh.coords, DEFAULT_TGV)


class TestRunPipeline:
    @pytest.mark.parametrize(
        "block", [4, 3, 16], ids=["multiple", "short-last", "under-one"]
    )
    @pytest.mark.parametrize("geometry", ["periodic", "curved", "channel"])
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    @pytest.mark.parametrize("dtype", ["float64", "float32", "mixed"])
    @pytest.mark.parametrize("fusion", ["none", "gather", "full"])
    def test_matches_operator_residual(
        self, monkeypatch, fusion, dtype, backend, geometry, block
    ):
        """The operator's blocked residual is bitwise the whole-mesh
        pipeline run plus ``finalize_residual``, with the same profiler
        phases — for block sizes dividing the 8 elements, leaving a
        short last block, and exceeding the mesh."""
        mesh, state = _flow_case(geometry)
        gas = DEFAULT_TGV.gas()
        kwargs = dict(fusion=fusion, backend=backend, dtype=dtype)
        blocked = NavierStokesOperator(mesh, gas, PhaseProfiler(), **kwargs)
        whole = NavierStokesOperator(mesh, gas, PhaseProfiler(), **kwargs)
        # Blocks are sized on the first residual, so the budget can be
        # set after construction: ``block`` elements of flux payload.
        itemsize = np.dtype(blocked.precision.storage).itemsize
        monkeypatch.setattr(
            ns_module,
            "BLOCK_PAYLOAD_BYTES",
            block * 5 * 3 * mesh.nodes_per_element * itemsize,
        )
        stacked = state.as_stacked()
        got = blocked.residual(stacked)
        assert len(blocked._blocks) == -(-mesh.num_elements // block)

        outputs = run_pipeline(
            navier_stokes_pipeline(fusion),
            PipelineContext.from_operator(whole),
            {"state": stacked.astype(whole.precision.storage)},
            profiler=whole.profiler,
        )
        expected = whole.finalize_residual(assembled_total(outputs))
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert set(blocked.profiler.totals()) == set(whole.profiler.totals())

    def test_block_contexts_built_on_first_residual(self, setup):
        """Operators that never evaluate a residual (the co-simulator's
        operator) never build the block contexts."""
        mesh, _op, stacked = setup
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        assert "_blocks" not in vars(op)
        op.residual(stacked)
        assert "_blocks" in vars(op)

    def test_unbound_external_rejected(self, setup):
        _mesh, op, _stacked = setup
        ctx = PipelineContext.from_operator(op)
        with pytest.raises(PipelineError):
            run_pipeline(navier_stokes_pipeline("none"), ctx, {})

    def test_profiler_phases_attributed_per_stage(self, setup):
        _mesh, op, stacked = setup
        prof = PhaseProfiler()
        ctx = PipelineContext.from_operator(op)
        run_pipeline(
            navier_stokes_pipeline("gather"), ctx, {"state": stacked}, prof
        )
        totals = prof.totals()
        assert {"rk.other", "rk.convection", "rk.diffusion"} <= set(totals)


class TestElementResiduals:
    def test_branches_sum_to_fused(self, setup):
        """Linearity: convection + diffusion branch residuals equal the
        fused pipeline's combined pass to rounding."""
        _mesh, op, stacked = setup
        state_elem = op._gather_state(stacked)
        conv = op.convection_element_residuals(state_elem)
        diff = op.diffusion_element_residuals(state_elem)
        fused = element_residuals(
            navier_stokes_pipeline("full"), op._ctx, state_elem
        )
        scale = np.abs(fused).max()
        assert np.abs(conv + diff - fused).max() <= 1e-12 * scale

    def test_diffusion_mass_row_exactly_zero(self, setup):
        _mesh, op, stacked = setup
        state_elem = op._gather_state(stacked)
        diff = op.diffusion_element_residuals(state_elem)
        assert np.abs(diff[0]).max() == 0.0


class TestStreaming:
    """The RKL binding of the one streaming lowering
    (:func:`repro.accel.cosim._rkl_actions` over
    :func:`~repro.pipeline.executor.streaming_actions`), driven per
    token and in the batched form."""

    def test_streamed_elements_assemble_the_residual(self, setup, drive):
        """Driving the streaming actions directly, element by element,
        rebuilds the batched assembled total."""
        _mesh, op, stacked = setup
        pipeline = navier_stokes_pipeline("full")
        plan = streaming_plan(pipeline)
        ctx = PipelineContext.from_operator(op)
        acc = np.zeros((5, op.mesh.num_nodes))
        blocks = element_blocks(np.arange(op.mesh.num_elements), 1)
        drive(_rkl_actions(plan, blocks, ctx, stacked, acc), len(blocks))
        outputs = run_pipeline(pipeline, ctx, {"state": stacked})
        batched = assembled_total(outputs)
        scale = np.abs(batched).max()
        assert np.abs(acc - batched).max() <= 1e-12 * scale

    @pytest.mark.parametrize("block_size", [1, 3, 8])
    def test_block_streaming_matches_element_streaming(
        self, setup, drive, block_size
    ):
        """A block token computes exactly what its elements would one at
        a time: same kernels, same scatter order within the block."""
        _mesh, op, stacked = setup
        pipeline = navier_stokes_pipeline("full")
        plan = streaming_plan(pipeline)
        ctx = PipelineContext.from_operator(op)
        elements = np.arange(op.mesh.num_elements)

        single = np.zeros((5, op.mesh.num_nodes))
        actions = _rkl_actions(
            plan, element_blocks(elements, 1), ctx, stacked, single
        )
        for element in range(op.mesh.num_elements):
            payload = actions["load"](element, ())
            payload = actions["compute"](element, (payload,))
            actions["store"](element, (payload,))

        blocked = np.zeros((5, op.mesh.num_nodes))
        blocks = element_blocks(elements, block_size)
        actions = _rkl_actions(plan, blocks, ctx, stacked, blocked)
        drive(actions, len(blocks))

        scale = np.abs(single).max()
        assert np.abs(blocked - single).max() <= 1e-13 * scale

    def test_sharded_blocks_reduce_to_the_full_residual(self, setup, drive):
        """Two shards with per-shard accumulators: the reduced sum is the
        batched assembled total (the multi-CU reduction path)."""
        _mesh, op, stacked = setup
        pipeline = navier_stokes_pipeline("full")
        plan = streaming_plan(pipeline)
        ctx = PipelineContext.from_operator(op)
        partials = []
        for part in partition_elements_balanced(op.mesh.num_elements, 2):
            acc = np.zeros((5, op.mesh.num_nodes))
            blocks = element_blocks(part, 3)
            actions = _rkl_actions(plan, blocks, ctx, stacked, acc)
            drive(actions, len(blocks))
            partials.append(acc)
        outputs = run_pipeline(pipeline, ctx, {"state": stacked})
        batched = assembled_total(outputs)
        scale = np.abs(batched).max()
        assert np.abs(sum(partials) - batched).max() <= 1e-12 * scale


class TestSliceTokens:
    """A contiguous stream carries slice tokens, which view the mesh
    arrays; an explicit non-contiguous shard keeps index-array tokens.
    Over the same elements both stream the same numbers."""

    @pytest.mark.parametrize("block_size", [1, 3, 8])
    def test_slice_and_index_tokens_stream_identically(
        self, setup, drive, block_size
    ):
        _mesh, op, stacked = setup
        pipeline = navier_stokes_pipeline("full")
        plan = streaming_plan(pipeline)
        ctx = PipelineContext.from_operator(op)
        for part in partition_elements_balanced(op.mesh.num_elements, 2):
            partials = []
            for blocks in (
                slice_blocks(int(part[0]), int(part[-1]) + 1, block_size),
                element_blocks(part, block_size),
            ):
                acc = np.zeros((5, op.mesh.num_nodes))
                actions = _rkl_actions(plan, blocks, ctx, stacked, acc)
                drive(actions, len(blocks))
                partials.append(acc)
            assert np.array_equal(*partials)

    @staticmethod
    def _load_spy(tokens, num_nodes):
        """Streaming actions of the node pipeline over ``tokens`` whose
        LOAD records the (batched) token it is handed."""
        state = np.ones((5, num_nodes))
        seen = []

        def load(block, names):
            seen.append(block)
            return {
                "state": state[:, block],
                "derivs": [state[:, block]],
                "coeffs": np.array([1.0]),
                "dt": 0.1,
            }

        ctx = RKUpdateContext(gas=DEFAULT_TGV.gas())
        actions = streaming_actions(
            streaming_plan(rk_update_pipeline(primitives=False)),
            tokens,
            lambda block: ctx,
            load,
            lambda stage, value, context, block: None,
        )
        return actions, seen

    def test_batched_slice_covers_the_concatenated_tokens(self):
        nodes = np.arange(23)
        tokens = slice_blocks(0, nodes.size, 4)
        actions, seen = self._load_spy(tokens, nodes.size)
        for count in range(1, len(tokens) + 1):
            actions["load"].batch(count, ())
            assert isinstance(seen[-1], slice)
            assert np.array_equal(
                nodes[seen[-1]],
                np.concatenate([nodes[token] for token in tokens[:count]]),
            )

    def test_non_consecutive_slices_rejected_in_batch(self):
        actions, _seen = self._load_spy([slice(0, 4), slice(8, 12)], 12)
        actions["load"](1, ())  # a lone token streams as given
        with pytest.raises(PipelineError, match="consecutive"):
            actions["load"].batch(2, ())
