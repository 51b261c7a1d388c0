"""Timing evaluation and functional co-simulation of a design.

Two granularities:

- **analytic** (:func:`rk_step_seconds` and friends): steady-state
  extrapolation used at paper-scale mesh sizes — verified against the
  cycle-level dataflow simulation by the test suite;
- **cycle-level** (:func:`cosimulate_small_mesh`): lowers the operator
  pipeline IR (:func:`repro.pipeline.element_pipeline`) to a
  :class:`~repro.dataflow.graph.DataflowGraph` whose tasks carry
  payload actions, then streams every element of a real (small) mesh
  through it — the run prices the pipeline *and* computes it. The
  streamed residual must reproduce
  :meth:`~repro.solver.navier_stokes.NavierStokesOperator.residual` to
  rounding error while the cycle count still matches the analytic
  ``fill + II * (E - 1)`` model: the accelerator computes the *same
  physics* the timing model prices, by construction from one IR.

Streaming is *batched* and *shardable*: tokens carry element blocks
(``block_size`` elements per simulated pipeline iteration, latencies
scaled per block — see :func:`analytic_block_cycles`), and the element
stream can be split across ``num_cus`` parallel task-graph instances
merged under one simulator clock
(:func:`~repro.mesh.partition.partition_elements_balanced` semantics,
per-CU partial residuals reduced before finalization). The multi-CU
timing extension (:mod:`repro.accel.multi_cu`) derives its
:class:`~repro.accel.multi_cu.MultiCUTiming` from the same co-simulated
graphs via
:func:`~repro.accel.multi_cu.multi_cu_timing_from_cosim`, so timing,
op-counts, and functional execution share one source of truth.

Co-simulation also covers the *whole* RK time step
(:func:`cosimulate_rk_stage`): every stage's RKL element stream chains
into the RK-update node stream (the
:func:`~repro.pipeline.rk_update.rk_update_pipeline` lowering) under one
simulator clock, sequenced by kernel dependencies
(:attr:`~repro.dataflow.task.Task.depends_on`); the streamed final
state must match :meth:`repro.solver.simulation.Simulation.step` to
rounding error, and :func:`design_timing_from_rk_cosim` turns the trace
into a :class:`DesignTiming` whose RKU seconds are simulated rather than
modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import seconds_from_cycles
from ..dataflow.graph import DataflowGraph, merge_graphs
from ..dataflow.simulator import DataflowSimulator, SimulationTrace
from ..dataflow.task import BlockLatency, Task
from ..errors import ExperimentError
from ..mesh.hexmesh import HexMesh, elements_for_node_count
from ..mesh.partition import element_blocks, partition_elements_balanced
from ..physics.state import NUM_CONSERVED, FlowState
from ..pipeline import (
    DEFAULT_TASK_NAMES,
    RK_UPDATE_TASK_NAMES,
    OperatorPipeline,
    PipelineContext,
    RKUpdateContext,
    element_pipeline,
    node_blocks,
    rk_update_pipeline,
    rk_update_streaming_actions,
    streaming_actions,
)
from ..timeint.butcher import RK4, ButcherTableau
from .designs import AcceleratorDesign
from .multi_cu import nodes_per_compute_unit


@dataclass(frozen=True)
class DesignTiming:
    """Seconds per time step of one design on one mesh size."""

    design_name: str
    num_nodes: int
    num_elements: int
    clock_mhz: float
    rkl_seconds_per_stage: float
    rku_seconds_per_step: float
    num_stages: int

    @property
    def rk_step_seconds(self) -> float:
        """RKL (all stages) + RKU for one time step."""
        return self.rkl_seconds_per_stage * self.num_stages + (
            self.rku_seconds_per_step
        )


def design_timing(
    design: AcceleratorDesign,
    num_nodes: int,
    num_elements: int | None = None,
    tableau: ButcherTableau = RK4,
) -> DesignTiming:
    """Analytic timing of one design at one mesh size.

    Parameters
    ----------
    design:
        The elaborated design point.
    num_nodes:
        Mesh nodes; ``num_elements`` is derived from the design's
        polynomial order when not given.
    num_elements:
        Optional explicit element count.
    tableau:
        RK tableau supplying the per-step stage count.

    Raises
    ------
    ExperimentError
        If ``num_nodes < 1``.
    """
    if num_nodes < 1:
        raise ExperimentError("num_nodes must be >= 1")
    if num_elements is None:
        num_elements = elements_for_node_count(
            num_nodes, design.rkl.polynomial_order
        )
    hz = design.clock_mhz * 1e6
    rkl_cycles = design.rkl_stage_cycles(num_nodes, num_elements)
    rku_cycles = design.rku_step_cycles(num_nodes)
    return DesignTiming(
        design_name=design.options.name,
        num_nodes=num_nodes,
        num_elements=num_elements,
        clock_mhz=design.clock_mhz,
        rkl_seconds_per_stage=seconds_from_cycles(rkl_cycles, hz),
        rku_seconds_per_step=seconds_from_cycles(rku_cycles, hz),
        num_stages=tableau.num_stages,
    )


def rk_step_seconds(
    design: AcceleratorDesign, num_nodes: int, tableau: ButcherTableau = RK4
) -> float:
    """Seconds for one RK time step (RKL x stages + RKU)."""
    return design_timing(design, num_nodes, tableau=tableau).rk_step_seconds


def rk_method_seconds(
    design: AcceleratorDesign,
    num_nodes: int,
    num_steps: int,
    tableau: ButcherTableau = RK4,
) -> float:
    """Seconds for the RK method over a whole run (Fig. 5's metric).

    Raises :class:`~repro.errors.ExperimentError` if ``num_steps < 1``.
    """
    if num_steps < 1:
        raise ExperimentError("num_steps must be >= 1")
    return rk_step_seconds(design, num_nodes, tableau) * num_steps


def end_to_end_step_seconds(
    design: AcceleratorDesign,
    num_nodes: int,
    host_non_rk_seconds: float,
    pcie_seconds: float = 0.0,
    tableau: ButcherTableau = RK4,
) -> float:
    """End-to-end step: host non-RK work + accelerator RK + PCIe sync.

    This is the Section IV-B comparison: the host retains the non-RK
    phases ("The remaining computations are handled by the host CPU")
    while the accelerator executes the RK method.
    """
    if host_non_rk_seconds < 0 or pcie_seconds < 0:
        raise ExperimentError("times must be >= 0")
    return (
        host_non_rk_seconds
        + rk_step_seconds(design, num_nodes, tableau)
        + pcie_seconds
    )


# ---------------------------------------------------------------------------
# Cycle-level co-simulation
# ---------------------------------------------------------------------------


def build_rkl_dataflow_graph(
    design: AcceleratorDesign,
    num_nodes: int,
    pipeline: OperatorPipeline | None = None,
    actions=None,
    *,
    block_sizes=None,
    task_names=None,
    name: str | None = None,
) -> DataflowGraph:
    """The element pipeline as an explicit dataflow graph.

    The graph structure is *lowered from the operator pipeline IR* (the
    fused pipeline — the hardware always runs the merged
    diffusion+convection COMPUTE module), with per-stage latencies from
    :meth:`AcceleratorDesign.pipeline_stage_cycles`.

    Parameters
    ----------
    design:
        The design point supplying per-stage latencies and clocking.
    num_nodes:
        Gather footprint priced by the LOAD/STORE memory models — the
        whole mesh for one CU, a CU's share of it under sharding.
    pipeline:
        Operator pipeline to lower (defaults to the fused
        :func:`~repro.pipeline.navier_stokes.element_pipeline`).
    actions:
        Optional per-role payload execution (see
        :func:`repro.pipeline.streaming_actions`) to co-simulate
        functionally.
    block_sizes:
        Elements per token when tokens carry element blocks; task
        latencies scale with each iteration's block size (see
        :meth:`~repro.pipeline.ir.OperatorPipeline.to_task_graph`).
    task_names / name:
        Task renaming and graph name, used by the multi-CU lowering to
        keep per-CU shards distinct inside one merged graph.

    Returns
    -------
    DataflowGraph
        The LOAD -> COMPUTE -> STORE chain. Group sums equal the
        analytic role latencies, so a cycle-level run must agree with
        ``fill + II * (tokens - 1)`` at the token granularity — asserted
        by the integration tests.
    """
    if pipeline is None:
        pipeline = element_pipeline()
    stage_cycles = design.pipeline_stage_cycles(pipeline, num_nodes)
    return pipeline.to_task_graph(
        stage_cycles,
        task_names=task_names,
        actions=actions,
        name=name or f"rkl-{design.options.name}",
        block_sizes=block_sizes,
    )


def _cu_task_names(cu: int) -> dict[str, str]:
    """Role -> task-name mapping of one compute unit's shard."""
    return {
        role: f"cu{cu}.{base}" for role, base in DEFAULT_TASK_NAMES.items()
    }


def _element_partitions(
    num_elements: int, num_cus: int, partitions
) -> list[np.ndarray]:
    """Validated element shards, one per compute unit.

    ``partitions=None`` balances ``num_elements`` over ``num_cus``;
    explicit shards must be non-empty and cover the mesh exactly once.
    """
    if partitions is None:
        if num_cus < 1:
            raise ExperimentError("num_cus must be >= 1")
        partitions = partition_elements_balanced(num_elements, num_cus)
    else:
        partitions = [np.asarray(part, dtype=np.int64) for part in partitions]
    if any(part.size == 0 for part in partitions):
        raise ExperimentError(
            "every compute unit needs at least one element; fewer CUs "
            "than elements required"
        )
    covered = np.sort(np.concatenate(partitions))
    if covered.size != num_elements or not np.array_equal(
        covered, np.arange(num_elements)
    ):
        raise ExperimentError(
            "partitions must cover every mesh element exactly once"
        )
    return partitions




def analytic_block_cycles(
    design: AcceleratorDesign, num_nodes: int, block_sizes
) -> float:
    """Analytic RKL cycles for one CU streaming the given block tokens.

    The block pipeline keeps the element pipeline's cycle law at token
    granularity: task latencies are the per-element role latencies
    scaled by each token's block size (the II scales per block), and the
    total follows the tandem-pipeline recurrence
    ``finish(t, i) = max(finish(t, i-1), finish(t-1, i)) + c_t * b_i``.
    For uniform blocks this closes to the familiar
    ``fill_B + II_B * (tokens - 1)``, and one-element blocks recover the
    paper's ``fill + II * (E - 1)``; the short tail block of a
    non-divisor split only perturbs the drain term, which the recurrence
    prices exactly. The baseline without element-level dataflow stays on
    its serial ``II_serial * E`` regardless of blocking (tasks run
    back-to-back either way).

    Parameters
    ----------
    design:
        Design point (role latencies, dataflow on/off).
    num_nodes:
        Gather footprint the LOAD/STORE latencies are priced at.
    block_sizes:
        Elements per token, in stream order.

    Raises
    ------
    ExperimentError
        If ``block_sizes`` is empty.
    """
    sizes = [int(size) for size in block_sizes]
    if not sizes:
        raise ExperimentError("block_sizes must be non-empty")
    if not design.options.element_dataflow:
        return design.rkl_element_ii(num_nodes) * sum(sizes)
    role_cycles = list(design.rkl_element_cycles(num_nodes).values())
    finish = [0.0] * len(role_cycles)
    for size in sizes:
        upstream = 0.0
        for task, cycles in enumerate(role_cycles):
            finish[task] = max(finish[task], upstream) + cycles * size
            upstream = finish[task]
    return finish[-1]


def analytic_rku_step_cycles(
    design: AcceleratorDesign,
    num_nodes: int,
    node_block_size: int = 32,
) -> float:
    """Closed-form cycles of the *streamed* RKU chain.

    :meth:`AcceleratorDesign.rku_step_cycles` prices the update loops
    alone; the streamed chain the co-simulation (and the exact schedule
    solve) runs also carries the LOAD/STORE streaming interfaces around
    them. This is the chain's tandem-pipeline recurrence — the RKU
    analogue of :func:`analytic_block_cycles` — with the kernel-launch
    fill charged to the first token: the closed form the design-space
    exploration's cheap tier uses so its promoted points agree with the
    exact tier at any mesh size, not just where the update loops
    dominate.

    Raises :class:`~repro.errors.ExperimentError` on invalid sizes.
    """
    if num_nodes < 1:
        raise ExperimentError("num_nodes must be >= 1")
    if node_block_size < 1:
        raise ExperimentError("node_block_size must be >= 1")
    role_cycles = list(design.rku_node_cycles(num_nodes).values())
    finish = [0.0] * len(role_cycles)
    for block in node_blocks(num_nodes, node_block_size):
        upstream = 0.0
        for task, cycles in enumerate(role_cycles):
            finish[task] = max(finish[task], upstream) + cycles * block.size
            upstream = finish[task]
    return design.rku_fill_cycles() + finish[-1]


def exact_rkl_stage_cycles(
    design: AcceleratorDesign,
    num_nodes: int,
    num_elements: int,
    *,
    block_size: int = 1,
    num_cus: int = 1,
    partitions=None,
    pipeline: OperatorPipeline | None = None,
) -> int:
    """Exact RKL stage cycles from the schedule engine, *without* payloads.

    The middle rung of the design-space exploration's evaluation ladder:
    the same lowered graphs a payload-carrying co-simulation would run
    (per-CU chains from :func:`build_rkl_dataflow_graph`, merged under
    one clock) priced by :func:`repro.dataflow.analysis.exact_cycles`
    alone — an exact schedule solve at array-recurrence cost, with no
    mesh, state, or actions built. Agreement with both the closed form
    (:func:`analytic_block_cycles`) and the full co-simulation is
    asserted by the tier-agreement tests.

    Parameters
    ----------
    design:
        Design point pricing the pipeline.
    num_nodes / num_elements:
        Whole-mesh sizes; each CU prices its LOAD/STORE at its node
        share (:func:`~repro.accel.multi_cu.nodes_per_compute_unit`).
    block_size:
        Elements per token.
    num_cus / partitions:
        Element sharding, as in :func:`streamed_residual`.
    pipeline:
        Operator pipeline to lower (defaults to the fused element
        pipeline).

    Raises
    ------
    ExperimentError
        On invalid ``block_size`` or sharding.
    """
    from ..dataflow.analysis import exact_cycles

    if block_size < 1:
        raise ExperimentError("block_size must be >= 1")
    if pipeline is None:
        pipeline = element_pipeline()
    partitions = _element_partitions(num_elements, num_cus, partitions)
    num_cus = len(partitions)
    nodes_per_cu = nodes_per_compute_unit(num_nodes, num_cus)

    subgraphs: list[DataflowGraph] = []
    iterations: dict[str, int] = {}
    for cu, part in enumerate(partitions):
        blocks = element_blocks(part, block_size)
        graph = build_rkl_dataflow_graph(
            design,
            nodes_per_cu,
            pipeline=pipeline,
            block_sizes=(
                None if block_size == 1 else [block.size for block in blocks]
            ),
            task_names=None if num_cus == 1 else _cu_task_names(cu),
            name=(
                f"rkl-exact-{design.options.name}"
                if num_cus == 1
                else f"rkl-exact-{design.options.name}-cu{cu}"
            ),
        )
        for task_name in graph.tasks:
            iterations[task_name] = len(blocks)
        subgraphs.append(graph)
    if num_cus == 1:
        graph = subgraphs[0]
    else:
        graph = merge_graphs(
            f"rkl-exact-{design.options.name}-{num_cus}cu", subgraphs
        )
    return exact_cycles(graph, iterations)


def exact_rku_step_cycles(
    design: AcceleratorDesign,
    num_nodes: int,
    node_block_size: int = 32,
) -> int:
    """Exact RKU step cycles from the schedule engine, without payloads.

    The RKU counterpart of :func:`exact_rkl_stage_cycles`: the final
    update chain (b-row combination + primitive update,
    :func:`~repro.pipeline.rk_update.rk_update_pipeline` lowering, with
    the kernel-launch fill the closed form charges) solved exactly with
    no node payloads streamed.

    Raises :class:`~repro.errors.ExperimentError` on invalid sizes.
    """
    from ..dataflow.analysis import exact_cycles

    if num_nodes < 1:
        raise ExperimentError("num_nodes must be >= 1")
    if node_block_size < 1:
        raise ExperimentError("node_block_size must be >= 1")
    blocks = node_blocks(num_nodes, node_block_size)
    pipeline = rk_update_pipeline(primitives=True)
    template = _ChainTemplate(
        pipeline,
        design.rku_pipeline_stage_cycles(pipeline, num_nodes),
        block_sizes=[block.size for block in blocks],
    )
    graph = template.instantiate(
        dict(RK_UPDATE_TASK_NAMES),
        None,
        name=f"rku-exact-{design.options.name}",
        fill_cycles=design.rku_fill_cycles(),
    )
    return exact_cycles(graph, len(blocks))


def per_cu_simulated_cycles(
    trace: SimulationTrace, num_cus: int
) -> tuple[int, ...]:
    """Per-CU drain cycle extracted from a (possibly merged) trace.

    For a single CU this is the trace total; for a merged multi-CU run
    it is, per compute unit, the last finish time among that CU's
    ``cu<k>.``-prefixed tasks — all measured against the one shared
    simulator clock, so ``max()`` over the result is the RKL stage time.

    Raises
    ------
    ExperimentError
        If the trace has no tasks for one of the requested CUs.
    """
    if num_cus == 1:
        return (trace.total_cycles,)
    cycles: list[int] = []
    for cu in range(num_cus):
        prefix = f"cu{cu}."
        finishes = [
            stats.last_finish or 0
            for name, stats in trace.task_stats.items()
            if name.startswith(prefix)
        ]
        if not finishes:
            raise ExperimentError(
                f"trace {trace.graph_name!r} has no tasks for compute "
                f"unit {cu}"
            )
        cycles.append(max(finishes))
    return tuple(cycles)


def streamed_residual(
    design: AcceleratorDesign,
    operator,
    stacked: np.ndarray,
    pipeline: OperatorPipeline | None = None,
    *,
    block_size: int = 1,
    num_cus: int = 1,
    partitions=None,
    engine: str = "auto",
) -> tuple[np.ndarray, SimulationTrace]:
    """One right-hand side evaluated *through* the cycle simulator.

    Streams every mesh element through the lowered element pipeline —
    each simulated LOAD gathers a real element block, COMPUTE runs the
    fused flux/divergence kernels on it, STORE assembles its
    contribution — then applies the operator's mass inversion and wall
    conditions.

    With ``num_cus > 1`` (or explicit ``partitions``) the element stream
    is sharded across parallel task-graph instances — one per compute
    unit, task names prefixed ``cu<k>.`` — merged into a single graph
    and run under one simulator clock. Each CU assembles a partial
    residual accumulator; the partials are reduced (summed — the
    scatter-add of the per-CU contributions) before
    ``finalize_residual``, so the multi-CU streamed residual is
    bit-for-bit the single-graph reduction order per CU.

    Parameters
    ----------
    design:
        Accelerator design point to price the pipeline with.
    operator:
        A :class:`~repro.solver.navier_stokes.NavierStokesOperator`;
        supplies the mesh wiring, backend, and residual finalization.
    stacked:
        Global state ``(5, N)`` the residual is evaluated at.
    pipeline:
        Operator pipeline instance (defaults to the fused element
        pipeline the hardware runs).
    block_size:
        Elements per token. Larger blocks amortize per-token simulation
        overhead (the lever that lets bigger meshes co-simulate) while
        the cycle law keeps its block-scaled II.
    num_cus:
        Number of compute units to shard across
        (:func:`~repro.mesh.partition.partition_elements_balanced`
        semantics). Ignored when ``partitions`` is given.
    partitions:
        Explicit element shards (1-D index arrays), one per CU; must
        cover every mesh element exactly once.
    engine:
        Simulation engine
        (:meth:`~repro.dataflow.simulator.DataflowSimulator.run`);
        the default ``"auto"`` resolves to the vectorized schedule
        engine, since the streaming actions carry batched forms.

    Returns
    -------
    tuple[numpy.ndarray, SimulationTrace]
        The finalized residual and the simulation trace (one run yields
        both the functional result and the cycle count).

    Raises
    ------
    ExperimentError
        If ``block_size < 1``, a shard is empty, or the partitions do
        not cover the mesh exactly.
    """
    if pipeline is None:
        pipeline = element_pipeline()
    if block_size < 1:
        raise ExperimentError("block_size must be >= 1")
    num_nodes = operator.mesh.num_nodes
    partitions = _element_partitions(
        operator.mesh.num_elements, num_cus, partitions
    )
    num_cus = len(partitions)

    ctx = PipelineContext.from_operator(operator)
    nodes_per_cu = nodes_per_compute_unit(num_nodes, num_cus)
    # Stream the state in the operator's storage dtype and assemble in
    # its accumulation dtype — the same precision policy the functional
    # residual's backend applies, so the two paths stay comparable in
    # every dtype mode.
    precision = operator.precision
    stacked = np.asarray(stacked, dtype=precision.storage)
    acc_dtype = precision.accumulate_for(stacked.dtype)
    accumulators = [
        np.zeros((NUM_CONSERVED, num_nodes), dtype=acc_dtype)
        for _ in partitions
    ]
    subgraphs: list[DataflowGraph] = []
    iterations: dict[str, int] = {}
    for cu, (part, accumulator) in enumerate(zip(partitions, accumulators)):
        blocks = element_blocks(part, block_size)
        actions = streaming_actions(
            pipeline, ctx, stacked, accumulator, blocks=blocks
        )
        graph = build_rkl_dataflow_graph(
            design,
            nodes_per_cu,
            pipeline=pipeline,
            actions=actions,
            block_sizes=(
                None if block_size == 1 else [block.size for block in blocks]
            ),
            task_names=None if num_cus == 1 else _cu_task_names(cu),
            name=(
                f"rkl-{design.options.name}"
                if num_cus == 1
                else f"rkl-{design.options.name}-cu{cu}"
            ),
        )
        for task_name in graph.tasks:
            iterations[task_name] = len(blocks)
        subgraphs.append(graph)
    if num_cus == 1:
        graph = subgraphs[0]
    else:
        graph = merge_graphs(
            f"rkl-{design.options.name}-{num_cus}cu", subgraphs
        )
    trace = DataflowSimulator(graph).run(iterations, engine=engine)
    # Reduce the per-CU partial residuals before finalization, rounding
    # to the storage dtype exactly once (the mixed-mode semantics of the
    # backends' scatter-add).
    total = accumulators[0]
    for accumulator in accumulators[1:]:
        total = total + accumulator
    if total.dtype != stacked.dtype:
        total = total.astype(stacked.dtype)
    return operator.finalize_residual(total), trace


@dataclass
class CosimResult:
    """Functional + timing co-simulation outcome on a small mesh."""

    trace: SimulationTrace
    analytic_cycles: float
    simulated_cycles: int
    #: Functional-run diagnostics; ``None`` when the co-simulation ran
    #: with ``verify=False`` (the checking solve was skipped).
    kinetic_energy: float | None
    mass_drift: float | None
    #: Max-norm relative error of the streamed residual against the
    #: functional operator's, over all five conserved fields; ``None``
    #: under ``verify=False``.
    residual_max_rel_err: float | None
    #: Number of RKL compute units the element stream was sharded over.
    num_compute_units: int = 1
    #: Elements per simulated token (1 = element-at-a-time streaming).
    block_size: int = 1
    #: Per-CU drain cycles on the shared simulator clock; ``max()`` of
    #: these is the RKL stage time of the sharded configuration.
    per_cu_cycles: tuple[int, ...] = ()

    @property
    def cycle_agreement(self) -> float:
        """|simulated - analytic| / analytic."""
        return abs(self.simulated_cycles - self.analytic_cycles) / (
            self.analytic_cycles
        )


def cosimulate_small_mesh(
    design: AcceleratorDesign,
    mesh: HexMesh,
    num_steps: int = 2,
    backend: str | None = None,
    case=None,
    initial_state: FlowState | None = None,
    block_size: int = 1,
    num_cus: int = 1,
    engine: str = "auto",
    dtype: str | None = None,
    verify: bool = True,
) -> CosimResult:
    """Run functional solve + payload-carrying cycle simulation on one mesh.

    The functional result (from :class:`repro.solver.Simulation`) proves
    the workload is real physics; the cycle-level trace validates the
    analytic extrapolation the experiments rely on; and the streamed
    residual (:func:`streamed_residual`, computed on the initial state)
    proves both executions agree to rounding error.

    Parameters
    ----------
    design:
        Accelerator design point to co-simulate.
    mesh:
        The (small) mesh to stream; with ``block_size > 1`` meshes an
        order of magnitude beyond the single-element streaming limit
        stay tractable, because each simulated token computes a batched
        element block instead of one element.
    num_steps:
        Time steps of the functional solve.
    backend:
        Compute backend for both paths (``None`` defers to the
        ``REPRO_BACKEND`` environment variable, then ``"reference"``).
    case / initial_state:
        The physics (defaults: the TGV case on its standard initial
        condition), so wall-bounded workloads such as the channel shear
        flow co-simulate too.
    block_size:
        Elements per simulated token (see :func:`streamed_residual`).
    num_cus:
        Compute units the element stream is sharded over; the analytic
        reference becomes the max over CUs of the per-CU block law, and
        ``per_cu_cycles`` records each CU's drain cycle.
    engine:
        Simulation engine, forwarded to :func:`streamed_residual`
        (``"auto"`` resolves to the vectorized schedule engine).
    dtype:
        Precision mode for both paths (``"float64"``, ``"float32"``,
        ``"mixed"``; ``None`` defers to ``REPRO_DTYPE``). Functional
        solve and streamed residual run under the same policy.
    verify:
        ``True`` (default) also runs the functional reference — the
        operator residual the streamed result is checked against and the
        ``num_steps`` solver run behind ``kinetic_energy`` /
        ``mass_drift``. ``False`` skips that duplicate solve (the
        streamed payloads compute identical values either way) and
        leaves the three report fields ``None``.

    Returns
    -------
    CosimResult
        Functional + timing outcome; ``residual_max_rel_err`` must sit
        at rounding error for the co-simulation to be trusted.

    Raises
    ------
    ExperimentError
        On invalid ``block_size``/``num_cus`` (including more CUs than
        elements).
    """
    from ..physics.taylor_green import DEFAULT_TGV
    from ..solver.simulation import Simulation

    if case is None:
        case = DEFAULT_TGV
    sim = Simulation(
        mesh, case, backend=backend, initial_state=initial_state, dtype=dtype,
    )
    initial_stacked = sim.state.as_stacked()
    streamed, trace = streamed_residual(
        design,
        sim.operator,
        initial_stacked,
        block_size=block_size,
        num_cus=num_cus,
        engine=engine,
    )
    residual_err = kinetic = drift = None
    if verify:
        expected = sim.operator.residual(initial_stacked)
        scale = float(np.abs(expected).max())
        residual_err = float(np.abs(streamed - expected).max()) / (
            scale if scale > 0.0 else 1.0
        )
        result = sim.run(num_steps)
        kinetic = result.records[-1].kinetic_energy
        drift = result.mass_drift()

    nodes_per_cu = nodes_per_compute_unit(mesh.num_nodes, num_cus)
    analytic = max(
        analytic_block_cycles(
            design,
            nodes_per_cu,
            [block.size for block in element_blocks(part, block_size)],
        )
        for part in partition_elements_balanced(mesh.num_elements, num_cus)
    )
    return CosimResult(
        trace=trace,
        analytic_cycles=analytic,
        simulated_cycles=trace.total_cycles,
        kinetic_energy=kinetic,
        mass_drift=drift,
        residual_max_rel_err=residual_err,
        num_compute_units=num_cus,
        block_size=block_size,
        per_cu_cycles=per_cu_simulated_cycles(trace, num_cus),
    )


# ---------------------------------------------------------------------------
# Full RK-step co-simulation: RKL element streams chained into RKU
# ---------------------------------------------------------------------------


def _latency_with_fill(base, fill: float):
    """A task latency with a kernel-launch fill on iteration 0.

    The RKU closed form charges the five update loops' pipeline depths
    (plus SLL crossings) once per launch; the streamed chain pays the
    same constant on its first token. Constant and block-scaled models
    stay :class:`~repro.dataflow.task.BlockLatency` instances so the
    vectorized schedule engine can still evaluate them in bulk.
    """
    extra = max(0, round(fill))
    if extra == 0:
        return base
    if isinstance(base, BlockLatency):
        return BlockLatency(
            base.cycles_per_unit, base.sizes, base.first_extra + extra
        )
    if callable(base):

        def latency(iteration: int, base=base, extra=extra) -> int:
            return int(base(iteration)) + (extra if iteration == 0 else 0)

        return latency
    return BlockLatency(int(base), None, extra)


class _ChainTemplate:
    """One streamed task chain, lowered once and instantiated cheaply.

    The full-step co-simulation runs the *same* chain structure many
    times — one RKL chain per compute unit per RK stage (per step), one
    combination chain per stage — differing only in task names, payload
    actions and sequencing. Lowering the operator pipeline once per
    distinct structure (per-CU block sizes, node block sizes) and
    rebinding per instance removes the per-stage ``to_task_graph`` /
    role-grouping cost from the hot path.
    """

    def __init__(
        self,
        pipeline: OperatorPipeline,
        stage_cycles,
        block_sizes=None,
    ) -> None:
        lowered = pipeline.to_task_graph(
            stage_cycles, name="template", block_sizes=block_sizes
        )
        self.spec = [
            (lowered.tasks[name].kind, lowered.tasks[name].latency)
            for name in lowered.topological_order()
        ]

    def instantiate(
        self,
        task_names,
        actions,
        name: str,
        depends_on: tuple[str, ...] = (),
        fill_cycles: float = 0.0,
    ) -> DataflowGraph:
        """A fresh graph with this chain's structure and latencies."""
        tasks = [
            Task(
                task_names[role],
                (
                    _latency_with_fill(latency, fill_cycles)
                    if index == 0
                    else latency
                ),
                kind=role,
                action=None if actions is None else actions.get(role),
                depends_on=depends_on if index == 0 else (),
            )
            for index, (role, latency) in enumerate(self.spec)
        ]
        graph = DataflowGraph(name=name)
        graph.chain(tasks)
        return graph


def _rku_task_names(prefix: str) -> dict[str, str]:
    """Role -> task-name mapping of one RKU chain instance."""
    return {
        role: f"{prefix}.{base}"
        for role, base in RK_UPDATE_TASK_NAMES.items()
    }


@dataclass
class RKStepCosimResult:
    """Outcome of a co-simulated full RK time step (all stages + RKU).

    One merged dataflow graph — per stage an RKL element stream (one
    chain per compute unit) and a stage-combination node stream, plus
    the final RKU update chain — ran under a single simulator clock,
    sequenced by kernel dependencies
    (:attr:`~repro.dataflow.task.Task.depends_on`).
    """

    trace: SimulationTrace
    #: The streamed step's final conservative state.
    final_state: FlowState
    #: ``(5, N)`` primitive rows ``u, v, w, T, p`` the RKU chain wrote.
    primitives: np.ndarray
    dt: float
    num_stages: int
    #: Max-norm relative error of the streamed final state against the
    #: functional :meth:`repro.solver.simulation.Simulation.step`;
    #: ``None`` when the run skipped the checking solve
    #: (``verify=False``).
    state_max_rel_err: float | None
    #: Per-RK-stage RKL cycles (first LOAD start to last STORE finish,
    #: max over compute units) on the shared clock; for a multi-step run
    #: the stage windows of every step, in step order
    #: (``num_steps * num_stages`` entries).
    per_stage_rkl_cycles: tuple[int, ...]
    #: RKU chain cycles measured on the trace (the last step's final
    #: update).
    rku_simulated_cycles: int
    #: The closed-form :meth:`AcceleratorDesign.rku_step_cycles`.
    rku_analytic_cycles: float
    num_compute_units: int = 1
    block_size: int = 1
    node_block_size: int = 1
    #: Elements of the co-simulated mesh (across all compute units).
    num_elements: int = 0
    #: Time steps chained under the one simulator clock.
    num_steps: int = 1

    @property
    def simulated_cycles(self) -> int:
        """Total cycles of the whole co-simulated step."""
        return self.trace.total_cycles

    @property
    def rku_cycle_agreement(self) -> float:
        """|simulated - analytic| / analytic for the RKU chain."""
        return abs(self.rku_simulated_cycles - self.rku_analytic_cycles) / (
            self.rku_analytic_cycles
        )


def _chain_window_cycles(
    trace: SimulationTrace, load_names: list[str], store_names: list[str]
) -> int:
    """Cycles one task chain occupied: first LOAD start to last STORE
    finish, on the shared simulator clock."""
    first = min(trace.stats(name).first_start or 0 for name in load_names)
    last = max(trace.stats(name).last_finish or 0 for name in store_names)
    return last - first


def cosimulate_rk_stage(
    design: AcceleratorDesign,
    mesh: HexMesh,
    dt: float | None = None,
    backend: str | None = None,
    case=None,
    initial_state: FlowState | None = None,
    block_size: int = 1,
    num_cus: int = 1,
    partitions=None,
    node_block_size: int = 32,
    tableau: ButcherTableau = RK4,
    num_steps: int = 1,
    engine: str = "auto",
    num_workers: int | None = None,
    dtype: str | None = None,
    verify: bool = True,
) -> RKStepCosimResult:
    """Co-simulate one complete RK time step: RKL streamed into RKU.

    Every RK stage's element stream (the RKL pipeline, sharded over
    ``num_cus`` like :func:`streamed_residual`) and every stage
    combination's node stream (the
    :func:`~repro.pipeline.rk_update.rk_update_pipeline` lowering) run
    as task chains of ONE merged dataflow graph under ONE simulator
    clock, sequenced the way the host runtime sequences the kernels:
    each chain's entry task carries a
    :attr:`~repro.dataflow.task.Task.depends_on` dependency on the
    previous chain's drain (stage ``s`` RKL waits for combination ``s``,
    combination ``s + 1`` waits for every stage-``s`` RKL shard, and the
    final RKU chain — axpy with the ``b`` row plus the primitive update
    — waits for the last stage). The payload-carrying tokens compute the
    *actual* step: the result must match the functional
    :meth:`repro.solver.simulation.Simulation.step` to rounding error,
    and the RKU chain's trace cycles must agree with the
    :meth:`~repro.accel.designs.AcceleratorDesign.rku_step_cycles`
    closed form — both asserted by the test suite.

    Parameters
    ----------
    design:
        Accelerator design point pricing both pipelines.
    mesh:
        The (small) mesh whose step is co-simulated.
    dt:
        Step size (``None`` uses the CFL controller's stable step).
    backend / case / initial_state:
        As in :func:`cosimulate_small_mesh`.
    block_size:
        Elements per RKL token.
    num_cus / partitions:
        RKL sharding, as in :func:`streamed_residual`.
    node_block_size:
        Nodes per RKU token. The default keeps per-token simulation
        overhead low while the RKU cycle count stays within a few
        percent of the closed form.
    tableau:
        The RK scheme to step.
    num_steps:
        Time steps to chain under the one simulator clock: each step's
        first RKL streams are sequenced behind the previous step's RKU
        store, so multi-step runs expose the steady-state behaviour of
        the whole method (all steps use the first step's ``dt``).
    engine:
        Simulation engine
        (:meth:`~repro.dataflow.simulator.DataflowSimulator.run`);
        ``"auto"`` resolves to the vectorized schedule engine.
    num_workers:
        Kept only so existing callers passing ``1`` keep working; any
        value but ``None``/``1`` raises (see :class:`Simulation`).
    dtype:
        Precision mode (``"float64"``, ``"float32"``, ``"mixed"``;
        ``None`` defers to ``REPRO_DTYPE``): the streamed step's staging
        arrays run in the policy's storage dtype and its accumulators in
        the accumulation dtype, matching the functional
        :meth:`~repro.solver.simulation.Simulation.step` under the same
        policy.
    verify:
        ``True`` (default) re-runs the step(s) through the functional
        :meth:`~repro.solver.simulation.Simulation.step` and records the
        max-norm state error. ``False`` skips that duplicate solve —
        the streamed state is bitwise what the verified run streams, so
        skipping the check only drops the ``state_max_rel_err`` report
        (left ``None``). The DSE cosim tier runs with ``verify=False``;
        the parity suite audits the checked path.

    Returns
    -------
    RKStepCosimResult
        Functional + timing outcome of the streamed step(s).

    Raises
    ------
    ExperimentError
        On invalid ``block_size``/``num_cus``/``partitions``, as in
        :func:`streamed_residual`, or ``num_steps < 1``.
    """
    from ..physics.taylor_green import DEFAULT_TGV
    from ..solver.simulation import Simulation

    if case is None:
        case = DEFAULT_TGV
    if block_size < 1:
        raise ExperimentError("block_size must be >= 1")
    if node_block_size < 1:
        raise ExperimentError("node_block_size must be >= 1")
    if num_steps < 1:
        raise ExperimentError("num_steps must be >= 1")
    sim = Simulation(
        mesh, case, tableau=tableau, backend=backend,
        initial_state=initial_state, num_workers=num_workers, dtype=dtype,
    )
    operator = sim.operator
    precision = operator.precision
    storage = precision.storage
    acc_dtype = precision.accumulate_for(storage)
    y0 = sim.state.as_stacked().astype(storage, copy=False)
    if dt is None:
        dt = sim.compute_dt()
    num_nodes = mesh.num_nodes
    num_stages = tableau.num_stages
    partitions = _element_partitions(mesh.num_elements, num_cus, partitions)
    num_cus = len(partitions)
    nodes_per_cu = nodes_per_compute_unit(num_nodes, num_cus)
    blocks = node_blocks(num_nodes, node_block_size)
    node_sizes = [block.size for block in blocks]

    ctx = PipelineContext.from_operator(operator)
    rku_ctx = RKUpdateContext(
        gas=operator.gas, num_nodes=num_nodes, precision=precision
    )
    rkl_pipeline = element_pipeline()
    combine_pipeline = rk_update_pipeline(primitives=False)
    update_pipeline = rk_update_pipeline(primitives=True)
    rku_fill = design.rku_fill_cycles()

    # The streaming lowerings, built ONCE: the task-chain structure and
    # latencies are identical across RK stages (and steps) — only names,
    # actions and sequencing differ per instance.
    rkl_stage_cycles = design.pipeline_stage_cycles(rkl_pipeline, nodes_per_cu)
    element_tokens = [element_blocks(part, block_size) for part in partitions]
    rkl_templates = [
        _ChainTemplate(
            rkl_pipeline,
            rkl_stage_cycles,
            block_sizes=(
                None
                if block_size == 1
                else [block.size for block in tokens]
            ),
        )
        for tokens in element_tokens
    ]
    combine_template = _ChainTemplate(
        combine_pipeline,
        design.rku_pipeline_stage_cycles(combine_pipeline, num_nodes),
        block_sizes=node_sizes,
    )
    update_template = _ChainTemplate(
        update_pipeline,
        design.rku_pipeline_stage_cycles(update_pipeline, num_nodes),
        block_sizes=node_sizes,
    )

    subgraphs: list[DataflowGraph] = []
    iterations: dict[str, int] = {}
    previous_drain: tuple[str, ...] = ()
    out_state = y0
    out_primitives = np.empty((NUM_CONSERVED, num_nodes))
    shape = (NUM_CONSERVED, num_nodes)
    for step in range(num_steps):
        prefix = "" if num_steps == 1 else f"k{step}."
        # Whole-mesh staging arrays this step's chains hand to one
        # another: the finalized stage derivatives, the combined stage
        # states the RKL streams read, and the step's outputs. The
        # previous step's output state is this step's base state.
        y_step = out_state
        derivs = [np.zeros(shape, dtype=storage) for _ in range(num_stages)]
        stage_states: list[np.ndarray] = [y_step]
        stage_states += [
            np.empty(shape, dtype=storage) for _ in range(num_stages - 1)
        ]
        accumulators = [
            [np.zeros(shape, dtype=acc_dtype) for _ in partitions]
            for _ in range(num_stages)
        ]
        out_state = np.empty(shape, dtype=storage)
        out_primitives = np.empty(shape, dtype=storage)

        def finalizer(stage: int, accumulators=accumulators, derivs=derivs):
            """Finalize stage ``stage``'s derivative when its consumer
            launches: reduce the per-CU partials, invert the mass, apply
            wall conditions — at the simulated instant the next kernel
            starts, after the dependency guaranteed the RKL drain."""

            def prepare() -> None:
                total = accumulators[stage][0]
                for accumulator in accumulators[stage][1:]:
                    total = total + accumulator
                if total.dtype != storage:
                    total = total.astype(storage)
                derivs[stage][:] = operator.finalize_residual(total)

            return prepare

        for stage in range(num_stages):
            if stage > 0:
                # Stage-combination node stream:
                # y_s = y + dt * sum(a_sk d_k).
                names = _rku_task_names(f"{prefix}s{stage}.update")
                actions = rk_update_streaming_actions(
                    combine_pipeline,
                    rku_ctx,
                    y_step,
                    derivs[:stage],
                    tableau.a[stage, :stage],
                    dt,
                    out_state=stage_states[stage],
                    blocks=blocks,
                    prepare=finalizer(stage - 1),
                )
                graph = combine_template.instantiate(
                    names,
                    actions,
                    name=f"rkstep-{design.options.name}-{prefix}s{stage}-update",
                    depends_on=previous_drain,
                    fill_cycles=rku_fill,
                )
                for task_name in graph.tasks:
                    iterations[task_name] = len(blocks)
                subgraphs.append(graph)
                previous_drain = (names["store"],)
            # RKL element streams of this stage, one chain per CU.
            drains: list[str] = []
            for cu in range(num_cus):
                names = {
                    role: f"{prefix}s{stage}.cu{cu}.{base}"
                    for role, base in DEFAULT_TASK_NAMES.items()
                }
                actions = streaming_actions(
                    rkl_pipeline,
                    ctx,
                    stage_states[stage],
                    accumulators[stage][cu],
                    blocks=element_tokens[cu],
                )
                graph = rkl_templates[cu].instantiate(
                    names,
                    actions,
                    name=f"rkstep-{design.options.name}-{prefix}s{stage}-cu{cu}",
                    depends_on=previous_drain,
                )
                for task_name in graph.tasks:
                    iterations[task_name] = len(element_tokens[cu])
                drains.append(names["store"])
                subgraphs.append(graph)
            previous_drain = tuple(drains)
        # The step's final RKU chain: b-row combination + primitive
        # update.
        names = _rku_task_names(f"{prefix}rku")
        actions = rk_update_streaming_actions(
            update_pipeline,
            rku_ctx,
            y_step,
            derivs,
            tableau.b,
            dt,
            out_state=out_state,
            out_primitives=out_primitives,
            blocks=blocks,
            prepare=finalizer(num_stages - 1),
        )
        graph = update_template.instantiate(
            names,
            actions,
            name=f"rkstep-{design.options.name}-{prefix}rku",
            depends_on=previous_drain,
            fill_cycles=rku_fill,
        )
        for task_name in graph.tasks:
            iterations[task_name] = len(blocks)
        subgraphs.append(graph)
        previous_drain = (names["store"],)

    merged = merge_graphs(
        f"rkstep-{design.options.name}-{num_cus}cu", subgraphs
    )
    trace = DataflowSimulator(merged).run(iterations, engine=engine)

    state_err = None
    if verify:
        # Functional reference: the very steps the solver would take.
        for _ in range(num_steps):
            sim.step(dt)
        expected = sim.state.as_stacked()
        scale = float(np.abs(expected).max())
        state_err = float(np.abs(out_state - expected).max()) / (
            scale if scale > 0.0 else 1.0
        )

    per_stage = tuple(
        _chain_window_cycles(
            trace,
            [
                f"{prefix}s{stage}.cu{cu}.{DEFAULT_TASK_NAMES['load']}"
                for cu in range(num_cus)
            ],
            [
                f"{prefix}s{stage}.cu{cu}.{DEFAULT_TASK_NAMES['store']}"
                for cu in range(num_cus)
            ],
        )
        for prefix in (
            [""] if num_steps == 1 else [f"k{k}." for k in range(num_steps)]
        )
        for stage in range(num_stages)
    )
    last_prefix = "" if num_steps == 1 else f"k{num_steps - 1}."
    rku_cycles = _chain_window_cycles(
        trace,
        [f"{last_prefix}rku.{RK_UPDATE_TASK_NAMES['load']}"],
        [f"{last_prefix}rku.{RK_UPDATE_TASK_NAMES['store']}"],
    )
    return RKStepCosimResult(
        trace=trace,
        final_state=FlowState.from_stacked(out_state),
        primitives=out_primitives,
        dt=dt,
        num_stages=num_stages,
        state_max_rel_err=state_err,
        per_stage_rkl_cycles=per_stage,
        rku_simulated_cycles=rku_cycles,
        rku_analytic_cycles=design.rku_step_cycles(num_nodes),
        num_compute_units=num_cus,
        block_size=block_size,
        node_block_size=node_block_size,
        num_elements=mesh.num_elements,
        num_steps=num_steps,
    )


def design_timing_from_rk_cosim(
    design: AcceleratorDesign, result: RKStepCosimResult
) -> DesignTiming:
    """A :class:`DesignTiming` whose stage times are *simulated*.

    Both terms of the step come from the full-step trace instead of the
    closed forms: ``rkl_seconds_per_stage`` is the mean per-stage RKL
    window (over every stage of every chained step) and
    ``rku_seconds_per_step`` the RKU chain's window, each converted at
    the design clock — the trace-derived counterpart of
    :func:`design_timing`, directly comparable against it.
    """
    hz = design.clock_mhz * 1e6
    mean_stage = sum(result.per_stage_rkl_cycles) / len(
        result.per_stage_rkl_cycles
    )
    return DesignTiming(
        design_name=design.options.name,
        num_nodes=result.final_state.num_nodes,
        num_elements=result.num_elements,
        clock_mhz=design.clock_mhz,
        rkl_seconds_per_stage=seconds_from_cycles(mean_stage, hz),
        rku_seconds_per_step=seconds_from_cycles(
            result.rku_simulated_cycles, hz
        ),
        num_stages=result.num_stages,
    )
