"""Full RK-step co-simulation: RKL streamed into RKU under one clock.

The PR-4 tentpole guarantees: chaining every stage's RKL element stream
into the RK-update node streams (kernel-sequencing dependencies inside
ONE merged dataflow graph, one simulator clock) computes *exactly* the
step the functional solver takes, while the RKU chain's cycle count
stays on the closed-form :meth:`AcceleratorDesign.rku_step_cycles`.
"""

import numpy as np
import pytest

from repro.accel.cosim import (
    cosimulate_rk_stage,
    design_timing,
    design_timing_from_rk_cosim,
)
from repro.errors import ExperimentError
from repro.mesh.hexmesh import channel_mesh, periodic_box_mesh
from repro.physics.channel import decaying_shear_initial
from repro.physics.taylor_green import (
    DEFAULT_TGV,
    TGVCase,
    taylor_green_initial,
)
from repro.pipeline import PIPELINE_KERNELS
from repro.solver.simulation import Simulation

#: Acceptance tolerance on the streamed-vs-functional final state.
STATE_TOL = 1e-12
#: Acceptance tolerance of the RKU trace against the closed form.
RKU_TOL = 0.05
#: Stages of the default RK4 step.
RK4_STAGES = 4


def channel_setup():
    case = TGVCase(mach=0.05, reynolds=100.0)
    mesh = channel_mesh(2, 2)
    return case, mesh, decaying_shear_initial(mesh.coords, case)


class TestFullStepParity:
    """Acceptance: final primitive state matches ``Simulation.step`` to
    <= 1e-12 on TGV p in {3, 5} and the channel, at block sizes
    {1, 4, E} and N in {1, 2} CUs."""

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("num_cus", [1, 2])
    @pytest.mark.parametrize("block_key", ["1", "4", "E"])
    def test_tgv_parity_matrix(self, proposed, order, num_cus, block_key):
        mesh = periodic_box_mesh(2, order)
        block_size = {"1": 1, "4": 4, "E": mesh.num_elements}[block_key]
        result = cosimulate_rk_stage(
            proposed, mesh, block_size=block_size, num_cus=num_cus
        )
        assert result.state_max_rel_err <= STATE_TOL
        assert result.rku_cycle_agreement < RKU_TOL
        assert result.num_compute_units == num_cus
        assert result.block_size == block_size

    @pytest.mark.parametrize("num_cus", [1, 2])
    @pytest.mark.parametrize("block_key", ["1", "4", "E"])
    def test_channel_parity_matrix(self, proposed, num_cus, block_key):
        case, mesh, init = channel_setup()
        block_size = {"1": 1, "4": 4, "E": mesh.num_elements}[block_key]
        result = cosimulate_rk_stage(
            proposed,
            mesh,
            backend="fast",
            case=case,
            initial_state=init,
            block_size=block_size,
            num_cus=num_cus,
            node_block_size=16,
        )
        assert result.state_max_rel_err <= STATE_TOL
        assert result.rku_cycle_agreement < RKU_TOL

    def test_uneven_partition_parity(self, proposed):
        """Explicitly unbalanced shards (6 / 2 elements) still stream
        the exact step."""
        mesh = periodic_box_mesh(2, 3)
        partitions = [np.arange(6), np.arange(6, 8)]
        result = cosimulate_rk_stage(
            proposed, mesh, block_size=4, partitions=partitions
        )
        assert result.state_max_rel_err <= STATE_TOL
        assert result.num_compute_units == 2
        # both shards retired their own token counts under one clock
        assert (
            result.trace.stats("s0.cu0.load_element").iterations_completed
            == 2
        )
        assert (
            result.trace.stats("s0.cu1.load_element").iterations_completed
            == 1
        )

    def test_matches_simulation_step_state(self, proposed):
        """The result's final_state IS the step the solver takes."""
        mesh = periodic_box_mesh(2, 3)
        from repro.physics.taylor_green import DEFAULT_TGV

        sim = Simulation(mesh, DEFAULT_TGV)
        dt = sim.compute_dt()
        result = cosimulate_rk_stage(proposed, mesh, dt=dt, block_size=2)
        sim.step(dt)
        expected = sim.state.as_stacked()
        scale = np.abs(expected).max()
        got = result.final_state.as_stacked()
        assert np.abs(got - expected).max() <= STATE_TOL * scale
        assert result.dt == dt

    def test_primitives_are_the_rku_outputs(self, proposed):
        mesh = periodic_box_mesh(2, 3)
        result = cosimulate_rk_stage(proposed, mesh, block_size=2)
        state = result.final_state
        gas = TGVCase().gas()
        assert np.abs(result.primitives[0:3] - state.velocity()).max() < 1e-12
        assert (
            np.abs(result.primitives[3] - state.temperature(gas)).max() < 1e-12
        )
        assert np.abs(result.primitives[4] - state.pressure(gas)).max() < 1e-12


class TestChainSequencing:
    """The chains run under ONE clock, ordered like the host runtime
    orders the kernels."""

    def test_stage_chains_are_sequenced(self, proposed):
        mesh = periodic_box_mesh(2, 3)
        result = cosimulate_rk_stage(proposed, mesh, block_size=2)
        trace = result.trace
        for stage in range(1, result.num_stages):
            rkl_drain = trace.stats("s%d.cu0.store_element_contribution" % (stage - 1)).last_finish
            combine_start = trace.stats(f"s{stage}.update.load_node_state").first_start
            combine_drain = trace.stats(f"s{stage}.update.store_node_state").last_finish
            next_rkl_start = trace.stats(f"s{stage}.cu0.load_element").first_start
            assert combine_start >= rkl_drain
            assert next_rkl_start >= combine_drain
        last_drain = trace.stats(
            f"s{result.num_stages - 1}.cu0.store_element_contribution"
        ).last_finish
        assert trace.stats("rku.load_node_state").first_start >= last_drain

    def test_total_covers_all_chains(self, proposed):
        mesh = periodic_box_mesh(2, 3)
        result = cosimulate_rk_stage(proposed, mesh, block_size=2)
        assert result.simulated_cycles >= (
            sum(result.per_stage_rkl_cycles) + result.rku_simulated_cycles
        )
        assert result.simulated_cycles == result.trace.total_cycles

    def test_per_stage_windows_match_single_stage_cost(self, proposed):
        """Each stage's RKL window reproduces the standalone stream's
        block cycle law (the chains add sequencing, not distortion)."""
        from repro.accel.cosim import analytic_block_cycles

        mesh = periodic_box_mesh(2, 3)
        result = cosimulate_rk_stage(proposed, mesh, block_size=2)
        expected = analytic_block_cycles(
            proposed, mesh.num_nodes, mesh.num_elements, 2
        )
        for window in result.per_stage_rkl_cycles:
            assert window == pytest.approx(expected, rel=0.02)


class TestRKUTrace:
    """Acceptance: RKU cycles from the trace agree with the
    ``rku_step_cycles`` closed form to < 5%."""

    @pytest.mark.parametrize("design_name", ["proposed", "vitis"])
    def test_rku_trace_matches_closed_form(
        self, design_name, proposed, vitis
    ):
        design = {"proposed": proposed, "vitis": vitis}[design_name]
        mesh = periodic_box_mesh(2, 3)
        result = cosimulate_rk_stage(design, mesh, block_size=2)
        assert result.rku_analytic_cycles == design.rku_step_cycles(
            mesh.num_nodes
        )
        assert result.rku_cycle_agreement < RKU_TOL

    def test_timing_derived_from_trace(self, proposed):
        mesh = periodic_box_mesh(2, 3)
        result = cosimulate_rk_stage(proposed, mesh, block_size=2)
        timing = design_timing_from_rk_cosim(proposed, result)
        analytic = design_timing(proposed, mesh.num_nodes, mesh.num_elements)
        assert timing.num_stages == result.num_stages
        # RKU seconds now come from the trace, within the closed form's 5%
        assert timing.rku_seconds_per_step == pytest.approx(
            analytic.rku_seconds_per_step, rel=RKU_TOL
        )
        # the RKL stage seconds follow the block cycle law at this
        # block size, converted at the design clock
        from repro.accel.cosim import analytic_block_cycles
        from repro.config import seconds_from_cycles

        law = analytic_block_cycles(
            proposed, mesh.num_nodes, mesh.num_elements, 2
        )
        assert timing.rkl_seconds_per_stage == pytest.approx(
            seconds_from_cycles(law, proposed.clock_mhz * 1e6), rel=0.02
        )
        assert timing.rk_step_seconds == pytest.approx(
            timing.rkl_seconds_per_stage * 4 + timing.rku_seconds_per_step
        )


class TestReadOnlyLoads:
    """LOAD hands the stage kernels read-only views of the global state
    and derivative arrays: a step writes through none of them, and a
    kernel that tries raises instead of corrupting the stream."""

    @pytest.mark.parametrize("engine", ["event", "vectorized"])
    def test_step_leaves_loaded_arrays_untouched(
        self, proposed, engine, monkeypatch
    ):
        mesh = periodic_box_mesh(2, 3)
        initial = taylor_green_initial(mesh.coords, DEFAULT_TGV)
        fields = (initial.rho, initial.momentum, initial.total_energy)
        before = [field.copy() for field in fields]
        loaded = []
        load_derivs = PIPELINE_KERNELS["load_node_derivs"]

        def spy(ctx, stage, derivs):
            loaded.extend((deriv, deriv.copy()) for deriv in derivs)
            return load_derivs(ctx, stage, derivs)

        monkeypatch.setitem(PIPELINE_KERNELS, "load_node_derivs", spy)
        cosimulate_rk_stage(
            proposed, mesh, initial_state=initial, block_size=4, num_cus=2,
            node_block_size=64, engine=engine, verify=False,
        )
        for field, copy in zip(fields, before):
            assert np.array_equal(field, copy)
        # Each stage derivative, as every RKU LOAD saw it, still holds
        # those values once the step is done.
        assert len(loaded) > RK4_STAGES
        for view, snapshot in loaded:
            assert not view.flags.writeable
            assert np.array_equal(view, snapshot)

    @pytest.mark.parametrize("kernel", ["gather", "load_node_state"])
    def test_mutating_kernel_raises(self, proposed, kernel, monkeypatch):
        mesh = periodic_box_mesh(2, 2)
        original = PIPELINE_KERNELS[kernel]

        def mutating(ctx, stage, state):
            state[...] = 0.0
            return original(ctx, stage, state)

        monkeypatch.setitem(PIPELINE_KERNELS, kernel, mutating)
        with pytest.raises(ValueError, match="read-only"):
            cosimulate_rk_stage(proposed, mesh, verify=False)


class TestValidation:
    def test_invalid_arguments(self, proposed):
        mesh = periodic_box_mesh(2, 3)
        with pytest.raises(ExperimentError):
            cosimulate_rk_stage(proposed, mesh, block_size=0)
        with pytest.raises(ExperimentError):
            cosimulate_rk_stage(proposed, mesh, num_cus=0)
        with pytest.raises(ExperimentError):
            cosimulate_rk_stage(proposed, mesh, node_block_size=0)
        with pytest.raises(ExperimentError):
            cosimulate_rk_stage(
                proposed, mesh, partitions=[np.arange(4)]
            )
