"""The RK-update (RKU) pipeline instance: structure, kernels, streaming."""

import numpy as np
import pytest

from repro.accel.cosim import _rku_actions
from repro.errors import MeshError, PipelineError
from repro.mesh.partition import element_blocks, slice_blocks
from repro.physics.state import FlowState
from repro.physics.taylor_green import DEFAULT_TGV
from repro.pipeline import (
    RK_UPDATE_TASK_NAMES,
    RKUpdateContext,
    bind_stage_buffers,
    rk_update_pipeline,
    run_pipeline,
    streaming_plan,
)
from repro.timeint.butcher import RK4


@pytest.fixture
def gas():
    return DEFAULT_TGV.gas()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_state(rng, n):
    """A physical random conservative state ``(5, n)``."""
    y = rng.normal(0.0, 0.1, (5, n))
    y[0] = np.abs(y[0]) + 1.0  # rho > 0
    y[4] = np.abs(y[4]) + 5.0  # internal energy > 0
    return y


class TestPipelineStructure:
    def test_roles_form_the_node_chain(self):
        pipeline = rk_update_pipeline()
        assert [role for role, _ in pipeline.role_groups()] == [
            "load",
            "compute",
            "store",
        ]

    def test_external_payloads(self):
        pipeline = rk_update_pipeline()
        assert set(pipeline.external_inputs()) == {
            "state",
            "derivs",
            "coeffs",
            "dt",
        }

    def test_combine_variant_drops_primitive_stages(self):
        combine = rk_update_pipeline(primitives=False)
        names = {stage.name for stage in combine.stages}
        assert "update_primitives" not in names
        assert "store_primitives" not in names
        assert combine.output_payloads() == ["updated_state"]

    def test_every_stage_is_rk_update_phase(self):
        pipeline = rk_update_pipeline()
        assert {stage.phase for stage in pipeline.stages} == {"rk.update"}

    def test_instances_are_independent_copies(self):
        a = rk_update_pipeline()
        b = rk_update_pipeline()
        a.stages.pop()
        assert len(b.stages) == 6

    def test_invalid_num_terms(self):
        with pytest.raises(PipelineError):
            rk_update_pipeline(num_terms=0)

    def test_lowers_to_named_task_chain(self):
        pipeline = rk_update_pipeline()
        cycles = {stage.name: 2.0 for stage in pipeline.stages}
        graph = pipeline.to_task_graph(
            cycles, task_names=RK_UPDATE_TASK_NAMES
        )
        assert graph.topological_order() == [
            "load_node_state",
            "update_node",
            "store_node_state",
        ]


class TestFunctionalExecution:
    def test_axpy_matches_numpy_reference(self, gas, rng):
        y = random_state(rng, 29)
        derivs = [rng.normal(size=(5, 29)) for _ in range(3)]
        coeffs = np.array([0.5, 0.0, -0.25])
        dt = 0.01
        ctx = RKUpdateContext(gas=gas)
        outputs = run_pipeline(
            rk_update_pipeline(),
            ctx,
            {"state": y, "derivs": derivs, "coeffs": coeffs, "dt": dt},
        )
        expected = y + dt * (0.5 * derivs[0] - 0.25 * derivs[2])
        assert np.abs(outputs["updated_state"] - expected).max() < 1e-15

    def test_all_zero_coefficients_pass_state_through(self, gas, rng):
        y = random_state(rng, 8)
        ctx = RKUpdateContext(gas=gas)
        outputs = run_pipeline(
            rk_update_pipeline(primitives=False),
            ctx,
            {
                "state": y,
                "derivs": [np.ones((5, 8))],
                "coeffs": np.array([0.0]),
                "dt": 0.1,
            },
        )
        assert outputs["updated_state"] is y

    def test_primitives_match_flow_state_methods(self, gas, rng):
        y = random_state(rng, 31)
        ctx = RKUpdateContext(gas=gas)
        outputs = run_pipeline(
            rk_update_pipeline(),
            ctx,
            {
                "state": y,
                "derivs": [np.zeros((5, 31))],
                "coeffs": np.array([1.0]),
                "dt": 0.0,
            },
        )
        prims = outputs["stored_primitives"]
        state = FlowState.from_stacked(y)
        assert np.abs(prims[0:3] - state.velocity()).max() < 1e-13
        assert np.abs(prims[3] - state.temperature(gas)).max() < 1e-13
        assert np.abs(prims[4] - state.pressure(gas)).max() < 1e-13


class TestBufferBinding:
    def test_bound_buffers_receive_the_outputs(self, gas, rng):
        y = random_state(rng, 13)
        buffers = {
            "increment": np.empty((5, 13)),
            "scratch": np.empty((5, 13)),
            "stage_state": np.empty((5, 13)),
            "primitives": np.empty((5, 13)),
        }
        pipeline = bind_stage_buffers(
            rk_update_pipeline(),
            {
                "stage_axpy": {
                    "acc": "increment",
                    "scratch": "scratch",
                    "out": "stage_state",
                },
                "store_state": {"out": "stage_state"},
                "update_primitives": {"out": "primitives"},
                "store_primitives": {"out": "primitives"},
            },
        )
        ctx = RKUpdateContext(gas=gas, buffers=buffers)
        derivs = [rng.normal(size=(5, 13))]
        outputs = run_pipeline(
            pipeline,
            ctx,
            {
                "state": y,
                "derivs": derivs,
                "coeffs": np.array([1.0]),
                "dt": 0.5,
            },
        )
        # No re-homing copies: the outputs ARE the preallocated buffers.
        assert outputs["updated_state"] is buffers["stage_state"]
        assert outputs["stored_primitives"] is buffers["primitives"]
        expected = y + 0.5 * derivs[0]
        assert np.abs(buffers["stage_state"] - expected).max() < 1e-15

    def test_unknown_stage_binding_raises(self):
        with pytest.raises(PipelineError):
            bind_stage_buffers(
                rk_update_pipeline(), {"no_such_stage": {"out": "b"}}
            )

    def test_missing_context_buffer_raises(self, gas, rng):
        pipeline = bind_stage_buffers(
            rk_update_pipeline(primitives=False),
            {"store_state": {"out": "unbound"}},
        )
        ctx = RKUpdateContext(gas=gas)
        with pytest.raises(PipelineError):
            run_pipeline(
                pipeline,
                ctx,
                {
                    "state": random_state(rng, 4),
                    "derivs": [np.ones((5, 4))],
                    "coeffs": np.array([1.0]),
                    "dt": 0.1,
                },
            )

    def test_binding_leaves_source_pipeline_untouched(self):
        source = rk_update_pipeline()
        bind_stage_buffers(source, {"stage_axpy": {"out": "b"}})
        assert source.stage("stage_axpy").param("out") is None


class TestNodeBlocks:
    """The node stream's tokens are the slice split of the node range."""

    def test_blocks_cover_nodes_in_order(self):
        blocks = slice_blocks(0, 10, 4)
        assert blocks == [slice(0, 4), slice(4, 8), slice(8, 10)]

    def test_invalid_block_size(self):
        with pytest.raises(MeshError):
            slice_blocks(0, 10, 0)


class TestStreamingActions:
    """The RK-update binding of the one streaming lowering
    (:func:`repro.accel.cosim._rku_actions` over
    :func:`~repro.pipeline.executor.streaming_actions`), driven per
    token and in the batched form."""

    @pytest.mark.parametrize("block_size", [1, 8, 37])
    def test_blockwise_stream_matches_whole_mesh_run(
        self, gas, rng, drive, block_size
    ):
        n = 37
        y = random_state(rng, n)
        derivs = [rng.normal(size=(5, n)) for _ in range(4)]
        coeffs = RK4.b
        dt = 0.02
        ctx = RKUpdateContext(gas=gas)
        pipeline = rk_update_pipeline()
        expected = run_pipeline(
            pipeline,
            ctx,
            {"state": y, "derivs": derivs, "coeffs": coeffs, "dt": dt},
        )
        out_state = np.empty((5, n))
        out_prims = np.empty((5, n))
        blocks = element_blocks(np.arange(n), block_size)
        targets = {
            "store_node_state": out_state,
            "store_node_primitives": out_prims,
        }
        actions = _rku_actions(
            streaming_plan(pipeline), blocks, ctx, y, derivs, coeffs, dt,
            targets,
        )
        drive(actions, len(blocks))
        assert np.array_equal(out_state, expected["updated_state"])
        assert np.array_equal(out_prims, expected["stored_primitives"])

    @pytest.mark.parametrize("primitives", [False, True])
    def test_slice_tokens_match_index_tokens(
        self, gas, rng, drive, primitives
    ):
        n = 37
        y = random_state(rng, n)
        derivs = [rng.normal(size=(5, n)) for _ in range(3)]
        pipeline = rk_update_pipeline(primitives=primitives)
        outputs = []
        for blocks in (slice_blocks(0, n, 8), element_blocks(np.arange(n), 8)):
            targets = {
                "store_node_state": np.empty((5, n)),
                "store_node_primitives": np.empty((5, n)),
            }
            actions = _rku_actions(
                streaming_plan(pipeline), blocks, RKUpdateContext(gas=gas),
                y, derivs,
                RK4.a[3, :3], 0.02, targets,
            )
            drive(actions, len(blocks))
            outputs.append(targets)
        sliced, indexed = outputs
        assert np.array_equal(
            sliced["store_node_state"], indexed["store_node_state"]
        )
        if primitives:
            assert np.array_equal(
                sliced["store_node_primitives"],
                indexed["store_node_primitives"],
            )

    def test_prepare_runs_once_before_first_load(self, gas, rng, drive):
        n = 6
        calls = []
        blocks = element_blocks(np.arange(n), 3)
        actions = _rku_actions(
            streaming_plan(rk_update_pipeline(primitives=False)),
            blocks,
            RKUpdateContext(gas=gas),
            random_state(rng, n),
            [np.ones((5, n))],
            np.array([1.0]),
            0.1,
            {"store_node_state": np.empty((5, n))},
            prepare=lambda: calls.append(True),
        )
        drive(actions, len(blocks))
        assert calls == [True]
