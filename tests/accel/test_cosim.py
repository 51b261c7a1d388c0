"""Design timing and cycle-level co-simulation."""

import numpy as np
import pytest

from repro.accel.cosim import (
    _RKLShards,
    analytic_block_cycles,
    cosimulate_rk_stage,
    design_timing,
    exact_rkl_stage_cycles,
    streamed_residual,
)
from repro.accel.multi_cu import nodes_per_compute_unit
from repro.errors import ExperimentError
from repro.mesh.hexmesh import channel_mesh, periodic_box_mesh
from repro.mesh.partition import partition_elements_balanced
from repro.physics.diagnostics import kinetic_energy, total_mass
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from repro.solver.navier_stokes import NavierStokesOperator
from repro.solver.simulation import Simulation


def residual_error(design, mesh, *, backend=None, case=None,
                   initial_state=None, **shards):
    """Max-norm relative error of the streamed residual against the
    functional operator's, on the run's initial state."""
    sim = Simulation(
        mesh, case or DEFAULT_TGV, backend=backend,
        initial_state=initial_state,
    )
    stacked = sim.state.as_stacked()
    streamed, _ = streamed_residual(design, sim.operator, stacked, **shards)
    expected = sim.operator.residual(stacked)
    return np.abs(streamed - expected).max() / np.abs(expected).max()


def analytic_stage_cycles(design, mesh, block_size=1, num_cus=1):
    """The block cycle law of the slowest balanced shard."""
    nodes_per_cu = nodes_per_compute_unit(mesh.num_nodes, num_cus)
    return max(
        analytic_block_cycles(design, nodes_per_cu, part.size, block_size)
        for part in partition_elements_balanced(mesh.num_elements, num_cus)
    )


def stage_agreement(design, mesh, result):
    """Worst |simulated - analytic| / analytic over the stage windows."""
    analytic = analytic_stage_cycles(
        design, mesh, result.block_size, result.num_compute_units
    )
    return max(
        abs(window - analytic) / analytic
        for window in result.per_stage_rkl_cycles
    )


def mass_weights(mesh):
    """The lumped mass diagonal the solver integrates with."""
    return NavierStokesOperator(mesh, DEFAULT_TGV.gas()).mass


def mass_drift(mesh, initial, final):
    """Relative change of the total mass between two states."""
    weights = mass_weights(mesh)
    first = total_mass(initial, weights)
    return abs(total_mass(final, weights) - first) / abs(first)


class TestAnalyticTiming:
    def test_step_time_composition(self, proposed):
        timing = design_timing(proposed, 1_000_000)
        assert timing.rk_step_seconds == pytest.approx(
            4 * timing.rkl_seconds_per_stage + timing.rku_seconds_per_step
        )

    def test_elements_derived_from_nodes(self, proposed):
        timing = design_timing(proposed, 8_000)
        assert timing.num_elements == 1_000

    def test_invalid_inputs(self, proposed):
        with pytest.raises(ExperimentError):
            design_timing(proposed, 0)


class TestDataflowGraph:
    """The shared RKL lowering at paper scale, without a mesh."""

    @staticmethod
    def lowered(design, num_nodes):
        graph, _ = _RKLShards(
            design, num_nodes, 1, block_size=1, num_cus=1, partitions=None
        ).graph("rkl")
        return graph

    def test_graph_matches_fig1_chain(self, proposed):
        graph = self.lowered(proposed, 100_000)
        assert graph.topological_order() == [
            "load_element",
            "compute_diffusion_convection",
            "store_element_contribution",
        ]
        graph.validate()

    def test_task_kinds(self, proposed):
        graph = self.lowered(proposed, 100_000)
        assert graph.tasks["load_element"].kind == "load"
        assert graph.tasks["store_element_contribution"].kind == "store"


class TestCycleLevelCosim:
    def test_simulation_matches_analytic(self, proposed, small_periodic_mesh):
        result = cosimulate_rk_stage(
            proposed, small_periodic_mesh, verify=False
        )
        assert stage_agreement(proposed, small_periodic_mesh, result) < 0.01

    def test_streamed_state_physical(self, proposed, small_periodic_mesh):
        mesh = small_periodic_mesh
        result = cosimulate_rk_stage(
            proposed, mesh, num_steps=2, verify=False
        )
        initial = taylor_green_initial(mesh.coords, DEFAULT_TGV)
        final = result.final_state
        assert mass_drift(mesh, initial, final) < 1e-12
        assert 0.05 < kinetic_energy(final, mass_weights(mesh)) < 0.2

    def test_baseline_sequential_agreement(self, vitis, small_periodic_mesh):
        """For the baseline the dataflow graph degenerates: per-element
        cycles are the serial sum, still matching the analytic total."""
        result = cosimulate_rk_stage(vitis, small_periodic_mesh, verify=False)
        # sequential model: analytic = ii * E; simulated pipeline of the
        # same tasks can only be faster or equal
        analytic = analytic_stage_cycles(vitis, small_periodic_mesh)
        assert max(result.per_stage_rkl_cycles) <= analytic * 1.01


class TestExactTierPricesTheCosimGraphs:
    """The exact tier and every stage window of the co-simulated step
    come from one lowering, so they are the same integer."""

    @pytest.mark.parametrize("num_cus", [1, 2, 4])
    @pytest.mark.parametrize("block_size", [1, 4, 17])
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("design_name", ["proposed", "vitis"])
    def test_exact_equals_every_stage_window(
        self, design_name, order, block_size, num_cus, proposed, vitis
    ):
        design = {"proposed": proposed, "vitis": vitis}[design_name]
        mesh = periodic_box_mesh(3, order)
        result = cosimulate_rk_stage(
            design, mesh, block_size=block_size, num_cus=num_cus,
            backend="fast", verify=False,
        )
        exact = exact_rkl_stage_cycles(
            design, mesh.num_nodes, mesh.num_elements,
            block_size=block_size, num_cus=num_cus,
        )
        assert len(result.per_stage_rkl_cycles) == result.num_stages
        assert all(w == exact for w in result.per_stage_rkl_cycles)

    def test_uneven_partition(self, proposed):
        mesh = periodic_box_mesh(3, 2)
        partitions = [np.arange(20), np.arange(20, 27)]
        result = cosimulate_rk_stage(
            proposed, mesh, block_size=4, partitions=partitions,
            backend="fast", verify=False,
        )
        exact = exact_rkl_stage_cycles(
            proposed, mesh.num_nodes, mesh.num_elements,
            block_size=4, partitions=partitions,
        )
        assert all(w == exact for w in result.per_stage_rkl_cycles)


class TestStreamedMassConservation:
    """The streamed state itself conserves mass on a periodic mesh — the
    check that covers campaigns' ``verify=False`` cosim tier."""

    @pytest.mark.parametrize("num_steps", [1, 3])
    def test_total_mass_conserved_without_verify(self, proposed, num_steps):
        mesh = periodic_box_mesh(3, 3)
        result = cosimulate_rk_stage(
            proposed, mesh, num_cus=2, block_size=4, num_steps=num_steps,
            backend="fast", verify=False,
        )
        assert result.state_max_rel_err is None
        initial = taylor_green_initial(mesh.coords, DEFAULT_TGV)
        assert mass_drift(mesh, initial, result.final_state) <= 1e-13


class TestFunctionalCosim:
    """The tentpole guarantee: the cycle simulator executes the *same*
    element pipeline the solver runs, so streaming every element through
    the dataflow graph reproduces the operator's residual while the
    cycle count still follows the analytic ``fill + II * (E - 1)``."""

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_streamed_residual_matches_operator(self, proposed, order, backend):
        mesh = periodic_box_mesh(2, order)
        assert residual_error(proposed, mesh, backend=backend) <= 1e-12
        result = cosimulate_rk_stage(
            proposed, mesh, backend=backend, verify=False
        )
        assert stage_agreement(proposed, mesh, result) < 0.02

    def test_sink_collects_one_token_per_element(
        self, proposed, small_periodic_mesh
    ):
        mesh = small_periodic_mesh
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        residual, trace = streamed_residual(proposed, op, stacked)
        sink = trace.sink_results["store_element_contribution"]
        assert len(sink) == mesh.num_elements
        expected = op.residual(stacked)
        scale = np.abs(expected).max()
        assert np.abs(residual - expected).max() <= 1e-12 * scale

    def test_batched_streaming_parity(self, proposed):
        """Block sizes {1, 4, non-divisor 17, E}: the batched stream
        reproduces both the single-element stream and the operator."""
        mesh = periodic_box_mesh(3, 2)  # 27 elements
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        expected = op.residual(stacked)
        scale = np.abs(expected).max()
        single, _ = streamed_residual(proposed, op, stacked, block_size=1)
        for block_size in (4, 17, mesh.num_elements):
            batched, trace = streamed_residual(
                proposed, op, stacked, block_size=block_size
            )
            assert np.abs(batched - expected).max() <= 1e-12 * scale
            assert np.abs(batched - single).max() <= 1e-13 * scale
            # one token per block, short tail included
            expected_tokens = -(-mesh.num_elements // block_size)
            sink = trace.sink_results["store_element_contribution"]
            assert len(sink) == expected_tokens

    def test_batched_cycles_follow_block_law(self, proposed, small_periodic_mesh):
        """Simulated cycles stay on fill(b0) + II * sum(b1..) with the
        II scaled per block."""
        mesh = small_periodic_mesh
        for block_size in (1, 4, 8):
            result = cosimulate_rk_stage(
                proposed, mesh, block_size=block_size, verify=False
            )
            assert stage_agreement(proposed, mesh, result) < 0.02
            assert result.block_size == block_size

    def test_block_law_reduces_to_element_law(self, proposed):
        """Uniform one-element blocks recover fill + II * (E - 1)."""
        law = analytic_block_cycles(proposed, 1000, 64)
        classic = proposed.rkl_fill_cycles(1000) + (
            proposed.rkl_element_ii(1000) * 63
        )
        assert law == pytest.approx(classic)

    def test_eight_times_larger_mesh_cosimulates(self, proposed):
        """The batching tentpole: a 64-element mesh (8x the 8-element
        single-element-streaming workhorse) co-simulates to rounding
        error with blocked tokens."""
        mesh = periodic_box_mesh(4, 3)  # 64 elements
        assert residual_error(proposed, mesh, block_size=16) <= 1e-12
        result = cosimulate_rk_stage(
            proposed, mesh, block_size=16, verify=False
        )
        assert stage_agreement(proposed, mesh, result) < 0.02

    def test_invalid_batching_arguments(self, proposed, small_periodic_mesh):
        with pytest.raises(ExperimentError):
            cosimulate_rk_stage(proposed, small_periodic_mesh, block_size=0)
        with pytest.raises(ExperimentError):
            cosimulate_rk_stage(proposed, small_periodic_mesh, num_cus=0)

    def test_channel_workload_cosimulates(self, proposed):
        """Satellite: case and initial state are injectable, so the
        wall-bounded decaying-shear workload co-simulates end to end.
        The convection terms of the exact shear solution cancel, which
        amplifies the relative error of re-ordered summation — hence the
        looser (still rounding-level) tolerance."""
        from repro.physics.channel import decaying_shear_initial
        from repro.physics.taylor_green import TGVCase

        case = TGVCase(mach=0.05, reynolds=100.0)
        mesh = channel_mesh(2, 2)
        init = decaying_shear_initial(mesh.coords, case)
        physics = dict(backend="fast", case=case, initial_state=init)
        assert residual_error(proposed, mesh, **physics) <= 1e-9
        result = cosimulate_rk_stage(
            proposed, mesh, num_steps=2, verify=False, **physics
        )
        assert stage_agreement(proposed, mesh, result) < 0.02
        assert mass_drift(mesh, init, result.final_state) < 1e-12
        assert kinetic_energy(result.final_state, mass_weights(mesh)) > 0.0


class TestMultiCUCosim:
    """Sharding the element stream across compute units: the reduced
    multi-CU streamed residual still matches the operator, the shards
    run under one simulator clock, and the derived timing agrees with
    the N-CU closed form."""

    @pytest.mark.parametrize("order", [3, 5])
    def test_two_cu_batched_residual_matches_operator(self, proposed, order):
        """Acceptance: N=2 batched streamed residual <= 1e-12 on TGV
        p in {3, 5}."""
        mesh = periodic_box_mesh(2, order)
        shards = dict(block_size=3, num_cus=2)
        assert residual_error(proposed, mesh, **shards) <= 1e-12
        result = cosimulate_rk_stage(proposed, mesh, verify=False, **shards)
        assert stage_agreement(proposed, mesh, result) < 0.02
        assert result.num_compute_units == 2
        for cu in range(2):
            stats = result.trace.stats(f"s0.cu{cu}.load_element")
            assert stats.iterations_completed > 0

    def test_two_cu_channel_case(self, proposed):
        """Acceptance: the wall-bounded channel workload shards too."""
        from repro.physics.channel import decaying_shear_initial
        from repro.physics.taylor_green import TGVCase

        case = TGVCase(mach=0.05, reynolds=100.0)
        mesh = channel_mesh(2, 2)
        init = decaying_shear_initial(mesh.coords, case)
        kwargs = dict(
            backend="fast", case=case, initial_state=init,
            block_size=2, num_cus=2,
        )
        assert residual_error(proposed, mesh, **kwargs) <= 1e-9
        result = cosimulate_rk_stage(proposed, mesh, verify=False, **kwargs)
        assert stage_agreement(proposed, mesh, result) < 0.02

    def test_uneven_partition_parity(self, proposed):
        """Explicitly unbalanced shards (20 / 7 elements) still reduce
        to the operator's residual bit-for-rounding."""
        mesh = periodic_box_mesh(3, 2)  # 27 elements
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        expected = op.residual(stacked)
        scale = np.abs(expected).max()
        partitions = [np.arange(20), np.arange(20, 27)]
        residual, trace = streamed_residual(
            proposed, op, stacked, block_size=4, partitions=partitions
        )
        assert np.abs(residual - expected).max() <= 1e-12 * scale
        # both shards retired their own token counts under one clock
        assert trace.stats("cu0.load_element").iterations_completed == 5
        assert trace.stats("cu1.load_element").iterations_completed == 2
        per_cu = [
            trace.stats(f"cu{cu}.store_element_contribution").last_finish
            for cu in range(2)
        ]
        assert per_cu[0] > per_cu[1]  # the heavy shard drains last
        assert trace.total_cycles == max(per_cu)

    def test_balanced_shards_drain_near_together(self, proposed):
        mesh = periodic_box_mesh(3, 2)  # 27 elements -> 14/13 shards
        result = cosimulate_rk_stage(proposed, mesh, num_cus=2, verify=False)
        drains = [
            result.trace.stats(
                f"s0.cu{cu}.store_element_contribution"
            ).last_finish
            for cu in range(2)
        ]
        slow, fast = max(drains), min(drains)
        assert result.per_stage_rkl_cycles[0] == slow
        assert (slow - fast) / slow < 0.1

    def test_derived_timing_matches_analytic_multi_cu(self, proposed):
        """Acceptance: simulated cycles are consistent with the N-CU
        closed form — the RKL stage time is the max over CUs, on both
        routes — and the trace-derived timing is the DSE cosim tier's
        pricing of the same point, at the same N-CU clock."""
        from repro.accel.cosim import design_timing_from_rk_cosim
        from repro.config import seconds_from_cycles
        from repro.dse.campaign import DesignPoint
        from repro.dse.tiers import evaluate_point

        # order 2 so the mesh's nodes-per-element matches the design's
        # polynomial order (the closed form derives E from N)
        mesh = periodic_box_mesh(3, 2)
        for num_cus in (1, 2):
            result = cosimulate_rk_stage(
                proposed, mesh, num_cus=num_cus, verify=False
            )
            derived = design_timing_from_rk_cosim(proposed, result)
            analytic = design_timing(
                proposed, mesh.num_nodes, num_cus=num_cus
            )
            assert derived.num_compute_units == num_cus
            assert derived.clock_mhz == analytic.clock_mhz
            assert derived.rkl_seconds_per_stage == pytest.approx(
                analytic.rkl_seconds_per_stage, rel=0.02
            )
            assert derived.rk_step_seconds == pytest.approx(
                analytic.rk_step_seconds, rel=0.02
            )
            point = DesignPoint(elements_per_direction=3, num_cus=num_cus)
            tier = evaluate_point(point, "cosim", verify=False)
            hz = tier.clock_mhz * 1e6
            assert derived.clock_mhz == tier.clock_mhz
            assert derived.rkl_seconds_per_stage == seconds_from_cycles(
                tier.rkl_stage_cycles, hz
            )
            assert derived.rku_seconds_per_step == seconds_from_cycles(
                tier.rku_step_cycles, hz
            )

    def test_sharding_speeds_up_the_simulated_stage(self, proposed):
        mesh = periodic_box_mesh(3, 2)
        one = cosimulate_rk_stage(proposed, mesh, num_cus=1, verify=False)
        two = cosimulate_rk_stage(proposed, mesh, num_cus=2, verify=False)
        assert max(two.per_stage_rkl_cycles) < 0.7 * min(
            one.per_stage_rkl_cycles
        )

    @pytest.mark.parametrize("engine", ["event", "vectorized"])
    def test_slice_and_index_token_shards(self, proposed, engine):
        """Contiguous shards stream slice tokens and an explicit
        interleaved partition index-array tokens; each path prices
        exactly its exact-tier graph and computes the residual."""
        mesh = periodic_box_mesh(3, 2)
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        expected = op.residual(stacked)
        elements = np.arange(mesh.num_elements)
        layouts = {
            slice: partition_elements_balanced(mesh.num_elements, 2),
            np.ndarray: [elements[::2], elements[1::2]],
        }
        for token_type, partitions in layouts.items():
            shards = _RKLShards(
                proposed, mesh.num_nodes, mesh.num_elements, block_size=4,
                num_cus=None, partitions=partitions,
            )
            assert all(
                isinstance(token, token_type)
                for blocks in shards.blocks
                for token in blocks
            )
            residual, trace = streamed_residual(
                proposed, op, stacked, block_size=4,
                partitions=partitions, engine=engine,
            )
            assert trace.total_cycles == exact_rkl_stage_cycles(
                proposed, mesh.num_nodes, mesh.num_elements, block_size=4,
                partitions=partitions,
            )
            scale = np.abs(expected).max()
            assert np.abs(residual - expected).max() <= 1e-12 * scale

    def test_invalid_partitions_rejected(self, proposed, small_periodic_mesh):
        mesh = small_periodic_mesh
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        with pytest.raises(ExperimentError):  # element 0 missing
            streamed_residual(
                proposed, op, stacked,
                partitions=[np.arange(1, mesh.num_elements)],
            )
        with pytest.raises(ExperimentError):  # element 1 duplicated
            streamed_residual(
                proposed, op, stacked,
                partitions=[
                    np.arange(mesh.num_elements),
                    np.array([1]),
                ],
            )
        with pytest.raises(ExperimentError):  # empty shard
            streamed_residual(
                proposed, op, stacked,
                partitions=[np.arange(mesh.num_elements), np.array([], dtype=int)],
            )
        with pytest.raises(ExperimentError):  # more CUs than elements
            cosimulate_rk_stage(
                proposed, mesh, num_cus=mesh.num_elements + 1
            )
        two = partition_elements_balanced(mesh.num_elements, 2)
        with pytest.raises(ExperimentError, match="disagrees"):
            cosimulate_rk_stage(proposed, mesh, num_cus=3, partitions=two)
        with pytest.raises(ExperimentError, match="disagrees"):
            streamed_residual(proposed, op, stacked, num_cus=1, partitions=two)
        with pytest.raises(ExperimentError, match="disagrees"):
            exact_rkl_stage_cycles(
                proposed, mesh.num_nodes, mesh.num_elements,
                num_cus=3, partitions=two,
            )

    def test_num_cus_follows_the_partitions(
        self, proposed, small_periodic_mesh
    ):
        mesh = small_periodic_mesh
        two = partition_elements_balanced(mesh.num_elements, 2)
        for num_cus in (None, 2):
            result = cosimulate_rk_stage(
                proposed, mesh, num_cus=num_cus, partitions=two, verify=False
            )
            assert result.num_compute_units == 2
        assert cosimulate_rk_stage(
            proposed, mesh, verify=False
        ).num_compute_units == 1


class TestStoreMatchesTheTwoDimensionalScatter:
    """Each CU's STORE accumulates, bit for bit, what the per-field 2-D
    ``np.add.at`` over the same contributions, in stream order, would."""

    @pytest.mark.parametrize("engine", ["event", "vectorized"])
    @pytest.mark.parametrize("layout", ["slice", "shuffled"])
    @pytest.mark.parametrize(
        "dtype, value_dtype, acc_dtype",
        [
            ("float32", np.float32, np.float32),
            ("mixed", np.float32, np.float64),
            ("float64", np.float64, np.float64),
        ],
    )
    def test_accumulators_equal_oracle(
        self, proposed, monkeypatch, engine, layout, dtype, value_dtype,
        acc_dtype,
    ):
        from repro.accel import cosim
        from repro.dataflow.simulator import DataflowSimulator
        from repro.pipeline import PipelineContext

        mesh = periodic_box_mesh(3, 2)  # 27 elements
        op = Simulation(mesh, DEFAULT_TGV, dtype=dtype).operator
        stacked = np.asarray(
            taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked(),
            dtype=op.precision.storage,
        )
        assert op.precision.accumulate_for(stacked.dtype) == acc_dtype
        elements = np.random.default_rng(5).permutation(mesh.num_elements)
        partitions = {
            "slice": partition_elements_balanced(mesh.num_elements, 2),
            "shuffled": [elements[:11], elements[11:]],
        }[layout]
        shards = _RKLShards(
            proposed, mesh.num_nodes, mesh.num_elements, block_size=4,
            num_cus=None, partitions=partitions,
        )
        assert all(
            isinstance(token, slice) == (layout == "slice")
            for blocks in shards.blocks
            for token in blocks
        )

        stored = {id(blocks): [] for blocks in shards.blocks}
        lower = cosim.streaming_actions

        def recording(pipeline, blocks, view, load, store, prepare=None):
            def spy(stage, value, context, block):
                stored[id(blocks)].append((
                    int(stage.param("field_start", 0)),
                    value.copy(),
                    context.connectivity.copy(),
                    np.arange(mesh.num_elements)[block],
                ))
                store(stage, value, context, block)

            return lower(pipeline, blocks, view, load, spy, prepare)

        monkeypatch.setattr(cosim, "streaming_actions", recording)
        accumulators = [
            np.zeros((5, mesh.num_nodes), dtype=acc_dtype)
            for _ in range(shards.num_cus)
        ]
        graph, iterations = shards.graph(
            "store-oracle",
            ctx=PipelineContext.from_operator(op),
            state=stacked,
            accumulators=accumulators,
        )
        DataflowSimulator(graph).run(iterations, engine=engine)

        for part, blocks, accumulator in zip(
            partitions, shards.blocks, accumulators
        ):
            oracle = np.zeros((5, mesh.num_nodes), dtype=acc_dtype)
            seen = []
            for start, value, connectivity, block in stored[id(blocks)]:
                assert value.dtype == value_dtype
                seen.append(block)
                for field in range(value.shape[0]):
                    np.add.at(oracle[start + field], connectivity, value[field])
            # every element of the shard stored once, in shard order
            assert np.array_equal(np.concatenate(seen), part)
            assert np.abs(oracle).max() > 0.0
            assert np.array_equal(accumulator, oracle)
