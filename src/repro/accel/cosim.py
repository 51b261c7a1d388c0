"""Timing evaluation and functional co-simulation of a design.

Three granularities, one lowering:

- **analytic** (:func:`design_timing`, :func:`analytic_block_cycles`,
  :func:`analytic_rku_step_cycles`): closed forms used at paper-scale
  mesh sizes;
- **exact** (:func:`exact_rkl_stage_cycles`,
  :func:`exact_rku_step_cycles`): the schedule engine's exact solve of
  the lowered graphs, with no payloads;
- **co-simulated** (:func:`cosimulate_rk_stage`): the operator pipeline
  IR (:func:`repro.pipeline.element_pipeline`) lowered to a
  :class:`~repro.dataflow.graph.DataflowGraph` whose tasks carry payload
  actions, so the run prices the pipeline *and* computes it. Every RK
  stage's RKL element stream chains into the RK-update node stream (the
  :func:`~repro.pipeline.rk_update.rk_update_pipeline` lowering) under
  one simulator clock, sequenced by kernel dependencies
  (:attr:`~repro.dataflow.task.Task.depends_on`); the streamed final
  state must match :meth:`repro.solver.simulation.Simulation.step` to
  rounding error. :func:`streamed_residual` runs the RKL stream alone —
  one right-hand side, checked against
  :meth:`~repro.solver.navier_stokes.NavierStokesOperator.residual`.

Every RKL graph — exact tier, residual and each stage of the step — is
built by one sharded lowering (:class:`_RKLShards`): tokens carry
element blocks (``block_size`` elements per simulated pipeline
iteration, latencies scaled per block — see
:func:`analytic_block_cycles`), and the element stream is split across
``num_cus`` parallel chains merged under one simulator clock
(:func:`~repro.mesh.partition.partition_elements_balanced` semantics,
per-CU partial residuals reduced before finalization); every RKU graph
— exact tier, each stage combination and final update — by its analogue
(:class:`_RKUChain`) over node blocks. Both stream payloads through the
one :func:`~repro.pipeline.executor.streaming_actions` lowering, with
the data bindings (:func:`_rkl_actions`, :func:`_rku_actions`) kept
here. The exact tier therefore prices the very graphs the co-simulation
runs, and :func:`design_timing_from_rk_cosim` turns the co-simulated
trace into a :class:`DesignTiming` whose stage times are simulated
rather than modeled.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..backend import KernelBackend, registry
from ..backend.registry import require_serial_workers, resolve_backend_name
from ..config import seconds_from_cycles
from ..dataflow.graph import DataflowGraph, merge_graphs
from ..dataflow.simulator import DataflowSimulator, SimulationTrace
from ..dataflow.task import BlockLatency, Task
from ..errors import ExperimentError, PipelineError
from ..mesh.hexmesh import HexMesh, elements_for_node_count
from ..mesh.partition import (
    largest_part_size,
    partition_elements_balanced,
    slice_blocks,
)
from ..physics.state import NUM_CONSERVED, FlowState
from ..physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from ..pipeline import (
    DEFAULT_TASK_NAMES,
    RK_UPDATE_TASK_NAMES,
    OperatorPipeline,
    PipelineContext,
    RKUpdateContext,
    element_pipeline,
    rk_update_pipeline,
    streaming_actions,
    streaming_plan,
)
from ..precision.modes import PrecisionPolicy
from ..solver.navier_stokes import NavierStokesOperator
from ..solver.simulation import Simulation, cfl_time_step
from ..timeint.butcher import RK4, ButcherTableau
from .designs import AcceleratorDesign, DesignTiming, priced
from .multi_cu import nodes_per_compute_unit


def design_timing(
    design: AcceleratorDesign,
    num_nodes: int,
    num_elements: int | None = None,
    tableau: ButcherTableau = RK4,
    num_cus: int = 1,
) -> DesignTiming:
    """Closed-form timing of one design at one mesh size and CU count.

    Each of the ``num_cus`` RKL compute units streams a shard of
    ``ceil(E / num_cus)`` elements against its share of the node space
    (:func:`~repro.accel.multi_cu.nodes_per_compute_unit`), so the stage
    time is the slowest shard's; RKU updates the whole mesh. The clock
    is that of the CU count's placement
    (:meth:`~repro.accel.designs.AcceleratorDesign.floorplan_for`).

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
    num_cus:
        RKL compute units (``1..`` the device's memory-attached SLRs).

    Raises
    ------
    ExperimentError
        If ``num_nodes < 1`` or the CU count is out of range.
    """
    if num_nodes < 1:
        raise ExperimentError("num_nodes must be >= 1")
    if num_elements is None:
        num_elements = elements_for_node_count(
            num_nodes, design.rkl.polynomial_order
        )
    clock = design.clock_for(num_cus)
    hz = clock * 1e6
    rkl_cycles = analytic_block_cycles(
        design,
        nodes_per_compute_unit(num_nodes, num_cus),
        largest_part_size(num_elements, num_cus),
    )
    rku_cycles = design.rku_step_cycles(num_nodes)
    return DesignTiming(
        design_name=design.options.name,
        num_nodes=num_nodes,
        num_elements=num_elements,
        clock_mhz=clock,
        rkl_seconds_per_stage=seconds_from_cycles(rkl_cycles, hz),
        rku_seconds_per_step=seconds_from_cycles(rku_cycles, hz),
        num_stages=tableau.num_stages,
        num_compute_units=num_cus,
    )


# ---------------------------------------------------------------------------
# Closed-form cycle laws
# ---------------------------------------------------------------------------


def _tandem_cycles(role_cycles, count: int, block_size: int) -> float:
    """Closed form of the tandem-pipeline recurrence over uniform blocks.

    ``count`` items stream through the task chain in tokens of
    ``block_size`` (the last token holds the ``r`` left over), and task
    ``t`` spends ``c_t * b_i`` cycles on token ``i``. The recurrence
    ``finish(t, i) = max(finish(t, i-1), finish(t-1, i)) + c_t * b_i``
    is the longest monotone path through the (task x token) grid; with
    ``n`` tokens its last-token turn at task ``k`` weighs
    ``B * (P_k + (n - 2) * M_k) + r * S_k`` (prefix sum, prefix max and
    suffix sum of ``c``), so the total is the max of that over ``k`` —
    O(tasks), whatever the item count. One token is ``r * sum(c)``.
    """
    tokens = -(-count // block_size)
    if tokens == 1:
        return float(count * sum(role_cycles))
    tail = count - (tokens - 1) * block_size
    prefix = peak = finish = 0.0
    suffix = sum(role_cycles)
    for cycles in role_cycles:
        prefix += cycles
        peak = max(peak, cycles)
        finish = max(
            finish,
            block_size * (prefix + (tokens - 2) * peak) + tail * suffix,
        )
        suffix -= cycles
    return float(finish)


@priced
def analytic_block_cycles(
    design: AcceleratorDesign,
    num_nodes: int,
    num_elements: int,
    block_size: int = 1,
) -> float:
    """Analytic RKL cycles for one CU streaming its elements in blocks.

    The block pipeline keeps the element pipeline's cycle law at token
    granularity: task latencies are the per-element role latencies
    scaled by each token's block size (the II scales per block), and the
    total is the tandem-pipeline recurrence in closed form
    (:func:`_tandem_cycles`). For uniform blocks this is the familiar
    ``fill_B + II_B * (tokens - 1)``, and one-element blocks recover the
    paper's ``fill + II * (E - 1)``; the short tail block of a
    non-divisor split only perturbs the drain term. The baseline without
    element-level dataflow stays on its serial ``II_serial * E``
    regardless of blocking (tasks run back-to-back either way). Memoized
    per design (:func:`~repro.accel.designs.priced`).

    Parameters
    ----------
    design:
        Design point (role latencies, dataflow on/off).
    num_nodes:
        Gather footprint the LOAD/STORE latencies are priced at.
    num_elements:
        Elements the CU streams.
    block_size:
        Elements per token; the last token may be short.

    Raises
    ------
    ExperimentError
        If ``num_elements`` or ``block_size`` is below 1.
    """
    if num_elements < 1:
        raise ExperimentError("num_elements must be >= 1")
    if block_size < 1:
        raise ExperimentError("block_size must be >= 1")
    if not design.options.element_dataflow:
        return design.rkl_element_ii(num_nodes) * num_elements
    return _tandem_cycles(
        design.rkl_element_cycles(num_nodes).values(),
        num_elements,
        block_size,
    )


@priced
def analytic_rku_step_cycles(
    design: AcceleratorDesign,
    num_nodes: int,
    node_block_size: int = 32,
) -> float:
    """Closed-form cycles of the *streamed* RKU chain.

    :meth:`AcceleratorDesign.rku_step_cycles` prices the update loops
    alone; the streamed chain the co-simulation (and the exact schedule
    solve) runs also carries the LOAD/STORE streaming interfaces around
    them. This is the chain's tandem-pipeline closed form — the RKU
    analogue of :func:`analytic_block_cycles` — with the kernel-launch
    fill charged to the first token: the closed form the design-space
    exploration's cheap tier uses so its promoted points agree with the
    exact tier at any mesh size, not just where the update loops
    dominate. Memoized per design, like :func:`analytic_block_cycles`.

    Raises :class:`~repro.errors.ExperimentError` on invalid sizes.
    """
    if num_nodes < 1:
        raise ExperimentError("num_nodes must be >= 1")
    if node_block_size < 1:
        raise ExperimentError("node_block_size must be >= 1")
    return design.rku_fill_cycles() + _tandem_cycles(
        design.rku_node_cycles(num_nodes).values(),
        num_nodes,
        node_block_size,
    )


# ---------------------------------------------------------------------------
# The sharded RKL lowering, shared by the exact tier and the co-simulation
# ---------------------------------------------------------------------------


def _element_partitions(
    num_elements: int, num_cus: int | None, partitions
) -> list[np.ndarray]:
    """Validated element shards, one per compute unit.

    ``partitions=None`` balances ``num_elements`` over ``num_cus`` (or
    one); explicit shards must be non-empty, cover the mesh exactly
    once, and number ``num_cus`` unless it is ``None``.
    """
    if partitions is None:
        num_cus = 1 if num_cus is None else num_cus
        if num_cus < 1:
            raise ExperimentError("num_cus must be >= 1")
        partitions = partition_elements_balanced(num_elements, num_cus)
    else:
        partitions = [np.asarray(part, dtype=np.int64) for part in partitions]
        if num_cus is not None and num_cus != len(partitions):
            raise ExperimentError(
                f"num_cus={num_cus} disagrees with {len(partitions)} shards"
            )
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


class _ChainTemplate:
    """One streamed task chain, lowered once and instantiated cheaply.

    The co-simulation runs the *same* chain structure many times — one
    RKL chain per compute unit per RK stage (per step), one combination
    chain per stage — differing only in task names, payload actions and
    sequencing. Lowering the operator pipeline once per distinct
    structure (per-CU block sizes, node block sizes) and rebinding per
    instance removes the per-stage ``to_task_graph`` / role-grouping
    cost from the hot path: the template keeps the chain's task spec and
    its :func:`~repro.pipeline.executor.streaming_plan`, which every
    instance's streaming actions run (derived on first read). Every
    lowering in this module goes through it.
    """

    def __init__(
        self,
        pipeline: OperatorPipeline,
        stage_cycles,
        block_sizes=None,
        fill_cycles: float = 0.0,
    ) -> None:
        lowered = pipeline.to_task_graph(
            stage_cycles, name="template", block_sizes=block_sizes
        )
        self._pipeline = pipeline
        self.spec = [
            (lowered.tasks[name].kind, lowered.tasks[name].latency)
            for name in lowered.topological_order()
        ]
        if fill_cycles:
            # The RKU closed form charges the update loops' pipeline
            # depths (plus SLL crossings) once per launch; the streamed
            # chain pays them on its first token. Only block-token
            # chains carry a fill, so the entry latency is a BlockLatency
            # the vectorized schedule engine still evaluates in bulk.
            role, latency = self.spec[0]
            self.spec[0] = (
                role,
                BlockLatency(
                    latency.cycles_per_unit, latency.sizes, round(fill_cycles)
                ),
            )

    @cached_property
    def plan(self):
        """The chain's :func:`~repro.pipeline.executor.streaming_plan`,
        derived on first read: the exact tier instantiates chains
        without payloads and never reads it."""
        return streaming_plan(self._pipeline)

    def instantiate(
        self,
        graphs: list[DataflowGraph],
        iterations: dict[str, int],
        task_names,
        tokens: int,
        actions=None,
        depends_on: tuple[str, ...] = (),
    ) -> str:
        """Append a fresh chain with this structure and latencies to
        ``graphs``, and its ``tokens`` per task to ``iterations``;
        returns the chain's STORE (drain) task."""
        tasks = [
            Task(
                task_names[role],
                latency,
                kind=role,
                action=None if actions is None else actions.get(role),
                depends_on=depends_on if index == 0 else (),
            )
            for index, (role, latency) in enumerate(self.spec)
        ]
        graph = DataflowGraph(name=task_names["store"])
        graph.chain(tasks)
        graphs.append(graph)
        iterations.update(dict.fromkeys(graph.tasks, tokens))
        return task_names["store"]


def _read_only(view: np.ndarray) -> np.ndarray:
    """``view``, locked so a kernel writing into a LOAD raises."""
    view.flags.writeable = False
    return view


def _rkl_actions(plan, blocks, ctx, state, accumulator):
    """The RKL binding of :func:`~repro.pipeline.executor.streaming_actions`.

    A block runs on its element view of ``ctx`` and gathers from the
    global ``state`` ``(5, N)``; STORE scatter-adds each field into the
    CU's ``accumulator`` ``(5, N)`` at the block's nodes only (the dense
    scatter of the batched store kernel would make streaming quadratic
    in mesh size). The state's dtype streams unchanged and the
    accumulator's dtype picks the reduction precision, as in the
    backends. STORE's 1-D index and pre-cast values keep the 2-D call's
    flat order and bits, off numpy's slow generic ``ufunc.at`` loop.
    ``plan`` is the pipeline's
    :func:`~repro.pipeline.executor.streaming_plan`. Raises
    :class:`~repro.errors.PipelineError` unless the pipeline's one
    external payload is the global state.
    """
    externals = plan.external_inputs
    if len(externals) != 1:
        raise PipelineError(
            f"pipeline {plan.name!r}: streaming execution expects one "
            f"external payload (the global state), found {list(externals)}"
        )
    (payload,) = externals
    frozen = _read_only(state[...])

    def store(stage, value, block_ctx, block):
        start = int(stage.param("field_start", 0))
        nodes = block_ctx.connectivity.ravel()
        value = value.astype(accumulator.dtype, copy=False)
        for field in range(value.shape[0]):
            np.add.at(accumulator[start + field], nodes, value[field].ravel())

    return streaming_actions(
        plan, blocks, ctx.element_block,
        lambda block, names: {payload: frozen}, store,
    )


def _rku_actions(
    plan, blocks, ctx, state, derivs, coeffs, dt_cell, targets, prepare=None
):
    """The RK-update binding of
    :func:`~repro.pipeline.executor.streaming_actions`.

    Every block runs on the one :class:`RKUpdateContext` ``ctx``. A task
    takes read-only views of the ``state`` ``(5, N)`` and ``derivs``
    node blocks its stages read when it starts, so it sees what a chain
    sequenced before it wrote in the same simulation; STORE writes each
    store stage's block into ``targets[stage.kernel]``. The node stream
    runs in the state's dtype. ``plan`` is the RK-update pipeline's
    :func:`~repro.pipeline.executor.streaming_plan`; ``dt_cell`` is a
    one-item list holding the step size, read at every LOAD, so one set
    of actions serves every step size.
    """

    def load(block, names):
        env = {"coeffs": coeffs, "dt": dt_cell[0]}
        if "state" in names:
            env["state"] = _read_only(state[:, block])
        if "derivs" in names:
            env["derivs"] = [_read_only(deriv[:, block]) for deriv in derivs]
        return env

    def store(stage, value, context, block):
        targets[stage.kernel][:, block] = value

    return streaming_actions(
        plan, blocks, lambda block: ctx, load, store, prepare
    )


class _RKLShards:
    """The RKL element stream sharded over compute units, lowered once.

    The one RKL lowering every cycle-level view shares: validated element
    shards (:func:`_element_partitions`), each CU's LOAD/STORE priced at
    its node share
    (:func:`~repro.accel.multi_cu.nodes_per_compute_unit`), its shard cut
    into ``block_size`` element tokens (slices for a contiguous shard,
    index arrays otherwise), and one :class:`_ChainTemplate` per CU.
    :func:`exact_rkl_stage_cycles` instantiates it without payloads;
    :func:`streamed_residual` and every stage of
    :func:`cosimulate_rk_stage` instantiate it with streaming actions.
    """

    def __init__(
        self,
        design: AcceleratorDesign,
        num_nodes: int,
        num_elements: int,
        *,
        block_size: int,
        num_cus: int | None,
        partitions,
        pipeline: OperatorPipeline | None = None,
    ) -> None:
        if block_size < 1:
            raise ExperimentError("block_size must be >= 1")
        if pipeline is None:
            pipeline = element_pipeline()
        partitions = _element_partitions(num_elements, num_cus, partitions)
        stage_cycles = design.pipeline_stage_cycles(
            pipeline, nodes_per_compute_unit(num_nodes, len(partitions))
        )
        self.blocks, self.templates = [], []
        for part in partitions:
            cuts = slice_blocks(0, part.size, block_size)
            first = int(part[0])
            self.blocks.append(
                slice_blocks(first, first + part.size, block_size)
                if (np.diff(part) == 1).all()  # every built-in partition
                else [part[cut] for cut in cuts]
            )
            sizes = [cut.stop - cut.start for cut in cuts]
            self.templates.append(_ChainTemplate(
                pipeline, stage_cycles, None if block_size == 1 else sizes
            ))

    @property
    def num_cus(self) -> int:
        return len(self.blocks)

    def task_names(self, prefix: str, cu: int) -> dict[str, str]:
        """Role -> task name of CU ``cu``'s chain: bare role names for an
        unprefixed single-CU stream, ``<prefix>cu<k>.<role task>``
        otherwise."""
        stem = "" if not prefix and self.num_cus == 1 else f"{prefix}cu{cu}."
        return {
            role: stem + base for role, base in DEFAULT_TASK_NAMES.items()
        }

    def instantiate(
        self,
        graphs: list[DataflowGraph],
        iterations: dict[str, int],
        prefix: str = "",
        *,
        ctx: PipelineContext | None = None,
        state: np.ndarray | None = None,
        accumulators=None,
        depends_on: tuple[str, ...] = (),
    ) -> tuple[str, ...]:
        """Append one chain per CU to ``graphs`` and its token count per
        task to ``iterations``; returns the chains' STORE (drain) tasks.

        With ``ctx`` the chains carry streaming actions: every CU reads
        ``state`` and assembles into its own ``accumulators[cu]``.
        """
        drains = []
        chains = zip(self.templates, self.blocks)
        for cu, (template, blocks) in enumerate(chains):
            actions = None
            if ctx is not None:
                actions = _rkl_actions(
                    template.plan, blocks, ctx, state, accumulators[cu]
                )
            drains.append(
                template.instantiate(
                    graphs, iterations, self.task_names(prefix, cu),
                    len(blocks), actions, depends_on,
                )
            )
        return tuple(drains)

    def graph(
        self, name: str, **payload
    ) -> tuple[DataflowGraph, dict[str, int]]:
        """The unprefixed CU chains merged into one graph, with their
        iteration counts (``payload`` as in :meth:`instantiate`)."""
        graphs: list[DataflowGraph] = []
        iterations: dict[str, int] = {}
        self.instantiate(graphs, iterations, **payload)
        return merge_graphs(name, graphs), iterations

    def window(self, trace: SimulationTrace, prefix: str) -> int:
        """Cycles the prefixed CU chains occupied on the shared clock."""
        return _window_cycles(
            trace, [self.task_names(prefix, cu) for cu in range(self.num_cus)]
        )


class _RKUChain:
    """The RK-update node stream, lowered once — the RKU analogue of
    :class:`_RKLShards`: the node range cut into ``node_block_size``
    tokens and one :class:`_ChainTemplate` priced at the whole mesh, the
    kernel-launch fill charged on the first token. Built only through
    :func:`_rku_chain`, one per design, size and variant.
    :func:`exact_rku_step_cycles` instantiates it without payloads, and
    every RKU chain of :func:`cosimulate_rk_stage` with
    :func:`_rku_actions`.
    """

    def __init__(
        self,
        design: AcceleratorDesign,
        num_nodes: int,
        node_block_size: int,
        *,
        primitives: bool,
    ) -> None:
        if num_nodes < 1:
            raise ExperimentError("num_nodes must be >= 1")
        if node_block_size < 1:
            raise ExperimentError("node_block_size must be >= 1")
        pipeline = rk_update_pipeline(primitives=primitives)
        self.blocks = slice_blocks(0, num_nodes, node_block_size)
        self.template = _ChainTemplate(
            pipeline,
            design.rku_pipeline_stage_cycles(pipeline, num_nodes),
            [block.stop - block.start for block in self.blocks],
            design.rku_fill_cycles(),
        )

    @staticmethod
    def task_names(prefix: str) -> dict[str, str]:
        """Role -> task name (``<prefix>.<role task>``) of one chain."""
        return {
            role: f"{prefix}.{base}"
            for role, base in RK_UPDATE_TASK_NAMES.items()
        }

    def instantiate(
        self,
        graphs: list[DataflowGraph],
        iterations: dict[str, int],
        prefix: str,
        actions=None,
        depends_on: tuple[str, ...] = (),
    ) -> tuple[str, ...]:
        """Append one chain to ``graphs`` and its token count per task to
        ``iterations``; returns the chain's STORE (drain) task."""
        drain = self.template.instantiate(
            graphs, iterations, self.task_names(prefix), len(self.blocks),
            actions, depends_on,
        )
        return (drain,)

    def window(self, trace: SimulationTrace, prefix: str) -> int:
        """Cycles the prefixed chain occupied on the shared clock."""
        return _window_cycles(trace, [self.task_names(prefix)])


@priced
def _rku_chain(
    design: AcceleratorDesign,
    num_nodes: int,
    node_block_size: int,
    primitives: bool,
) -> _RKUChain:
    """The :class:`_RKUChain` of one design, size and variant, lowered
    once and kept in the design's price table: it depends on nothing
    else, and instances share it read-only (every instantiation builds
    fresh tasks and actions)."""
    return _RKUChain(
        design, num_nodes, node_block_size, primitives=primitives
    )


def _reduce_partials(accumulators, dtype) -> np.ndarray:
    """Sum the per-CU partial residuals, rounding to ``dtype`` exactly
    once (the mixed-mode semantics of the backends' scatter-add)."""
    total = accumulators[0]
    for accumulator in accumulators[1:]:
        total = total + accumulator
    return total if total.dtype == dtype else total.astype(dtype)


def _window_cycles(trace: SimulationTrace, chains) -> int:
    """Cycles a set of task chains occupied (each given by its role ->
    task-name map): first LOAD start to last STORE finish, on the shared
    simulator clock."""
    first = min(trace.stats(n["load"]).first_start or 0 for n in chains)
    last = max(trace.stats(n["store"]).last_finish or 0 for n in chains)
    return last - first


def exact_rkl_stage_cycles(
    design: AcceleratorDesign,
    num_nodes: int,
    num_elements: int,
    *,
    block_size: int = 1,
    num_cus: int | None = None,
    partitions=None,
    pipeline: OperatorPipeline | None = None,
) -> int:
    """Exact RKL stage cycles from the schedule engine, *without* payloads.

    The middle rung of the design-space exploration's evaluation ladder:
    the very graphs every stage of :func:`cosimulate_rk_stage` runs (the
    shared sharded lowering, per-CU chains merged under one clock)
    priced by :func:`repro.dataflow.analysis.exact_cycles` alone — an
    exact schedule solve at array-recurrence cost, with no mesh, state,
    or actions built. It equals each entry of the co-simulation's
    ``per_stage_rkl_cycles`` exactly; agreement with the closed form
    (:func:`analytic_block_cycles`) is asserted by the tier-agreement
    tests.

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

    shards = _RKLShards(
        design,
        num_nodes,
        num_elements,
        block_size=block_size,
        num_cus=num_cus,
        partitions=partitions,
        pipeline=pipeline,
    )
    return exact_cycles(*shards.graph(f"rkl-exact-{design.options.name}"))


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

    chain = _rku_chain(design, num_nodes, node_block_size, True)
    graphs: list[DataflowGraph] = []
    iterations: dict[str, int] = {}
    chain.instantiate(graphs, iterations, "rku")
    return exact_cycles(
        merge_graphs(f"rku-exact-{design.options.name}", graphs), iterations
    )


def streamed_residual(
    design: AcceleratorDesign,
    operator,
    stacked: np.ndarray,
    pipeline: OperatorPipeline | None = None,
    *,
    block_size: int = 1,
    num_cus: int | None = None,
    partitions=None,
    engine: str = "vectorized",
) -> tuple[np.ndarray, SimulationTrace]:
    """One right-hand side evaluated *through* the cycle simulator.

    Streams every mesh element through the lowered element pipeline —
    each simulated LOAD gathers a real element block, COMPUTE runs the
    fused flux/divergence kernels on it, STORE assembles its
    contribution — then applies the operator's mass inversion and wall
    conditions. This is one RK stage of :func:`cosimulate_rk_stage` on
    its own.

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
        semantics); ``None``: one, or one per explicit partition.
    partitions:
        Explicit element shards (1-D index arrays), one per CU; must
        cover every mesh element exactly once.
    engine:
        Simulation engine
        (:meth:`~repro.dataflow.simulator.DataflowSimulator.run`):
        ``"vectorized"`` (default) runs the streaming actions' batched
        forms; ``"event"`` is the per-token oracle.

    Returns
    -------
    tuple[numpy.ndarray, SimulationTrace]
        The finalized residual and the simulation trace (one run yields
        both the functional result and the cycle count).

    Raises
    ------
    ExperimentError
        If ``block_size < 1``, a shard is empty, the partitions do not
        cover the mesh exactly, or ``num_cus`` disagrees with them.
    """
    mesh = operator.mesh
    shards = _RKLShards(
        design,
        mesh.num_nodes,
        mesh.num_elements,
        block_size=block_size,
        num_cus=num_cus,
        partitions=partitions,
        pipeline=pipeline,
    )
    # Stream the state in the operator's storage dtype and assemble in
    # its accumulation dtype — the same precision policy the functional
    # residual's backend applies, so the two paths stay comparable in
    # every dtype mode.
    precision = operator.precision
    stacked = np.asarray(stacked, dtype=precision.storage)
    acc_dtype = precision.accumulate_for(stacked.dtype)
    accumulators = [
        np.zeros((NUM_CONSERVED, mesh.num_nodes), dtype=acc_dtype)
        for _ in range(shards.num_cus)
    ]
    graph, iterations = shards.graph(
        f"rkl-{design.options.name}",
        ctx=PipelineContext.from_operator(operator),
        state=stacked,
        accumulators=accumulators,
    )
    trace = DataflowSimulator(graph).run(iterations, engine=engine)
    total = _reduce_partials(accumulators, stacked.dtype)
    return operator.finalize_residual(total), trace


# ---------------------------------------------------------------------------
# Full RK-step co-simulation: RKL element streams chained into RKU
# ---------------------------------------------------------------------------


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
    def rkl_stage_cycles(self) -> float:
        """The RKL stage window: the mean of :attr:`per_stage_rkl_cycles`
        (the windows of one run agree, so this is also their max)."""
        return sum(self.per_stage_rkl_cycles) / len(self.per_stage_rkl_cycles)

    @property
    def rku_cycle_agreement(self) -> float:
        """|simulated - analytic| / analytic for the RKU chain."""
        return abs(self.rku_simulated_cycles - self.rku_analytic_cycles) / (
            self.rku_analytic_cycles
        )


class _StepPlan:
    """The launch set-up of :func:`cosimulate_rk_stage`, built once.

    The paper's host allocates the device buffers and binds the RKL and
    RKU kernels once, then only enqueues each RK stage. The plan is that
    set-up: the operator and its backend, the RKL shards and the two RKU
    chains, every whole-mesh staging array the chains hand to one another
    (the base state, per stage the derivative, the combined state and
    the per-CU accumulators, per step the output state and primitives),
    and the merged graph with its streaming actions bound to those
    arrays inside one validated :class:`DataflowSimulator`. A
    :meth:`run` copies the initial state into :attr:`base`, sets the
    ``dt`` every RKU LOAD reads, zeroes the accumulators and simulates;
    it writes :attr:`out_state` and :attr:`out_primitives`, which the
    next run overwrites. ``objects`` and ``values`` are its key
    (:func:`_step_plan`); the plan holds the objects, so their ids
    cannot be recycled while it lives.
    """

    def __init__(
        self,
        objects: tuple,
        values: tuple,
        design: AcceleratorDesign,
        mesh: HexMesh,
        gas,
        backend,
        precision,
        *,
        block_size: int,
        num_cus: int | None,
        partitions,
        node_block_size: int,
        tableau: ButcherTableau,
        num_steps: int,
    ) -> None:
        self.objects, self.values = objects, values
        num_nodes = mesh.num_nodes
        combine, update = (
            _rku_chain(design, num_nodes, node_block_size, primitives)
            for primitives in (False, True)
        )
        self.update = update
        self.rkl = rkl = _RKLShards(
            design,
            num_nodes,
            mesh.num_elements,
            block_size=block_size,
            num_cus=num_cus,
            partitions=partitions,
        )
        operator = NavierStokesOperator(
            mesh, gas, backend=backend, dtype=precision
        )
        storage = operator.precision.storage
        acc_dtype = operator.precision.accumulate_for(storage)
        ctx = PipelineContext.from_operator(operator)
        rku_ctx = RKUpdateContext(gas=gas, precision=operator.precision)
        num_stages = tableau.num_stages
        shape = (NUM_CONSERVED, num_nodes)
        #: The first step's base state, copied in by every run.
        self.base = np.empty(shape, dtype=storage)
        #: The step size every RKU LOAD reads: a one-item cell.
        self.dt: list = [None]
        self.accumulators: list[np.ndarray] = []
        self.step_prefixes = (
            [""] if num_steps == 1
            else [f"k{step}." for step in range(num_steps)]
        )
        subgraphs: list[DataflowGraph] = []
        self.iterations: dict[str, int] = {}
        previous_drain: tuple[str, ...] = ()
        out_state = self.base
        for prefix in self.step_prefixes:
            # Whole-mesh staging arrays this step's chains hand to one
            # another: the finalized stage derivatives, the combined stage
            # states the RKL streams read, and the step's outputs. The
            # previous step's output state is this step's base state.
            y_step = out_state
            derivs = [
                np.zeros(shape, dtype=storage) for _ in range(num_stages)
            ]
            stage_states: list[np.ndarray] = [y_step]
            stage_states += [
                np.empty(shape, dtype=storage) for _ in range(num_stages - 1)
            ]
            accumulators = [
                [np.zeros(shape, dtype=acc_dtype) for _ in range(rkl.num_cus)]
                for _ in range(num_stages)
            ]
            self.accumulators += [a for stage in accumulators for a in stage]
            out_state = np.empty(shape, dtype=storage)
            out_primitives = np.empty(shape, dtype=storage)

            def finalizer(stage, accumulators=accumulators, derivs=derivs):
                """Finalize stage ``stage``'s derivative when its consumer
                launches: reduce the per-CU partials, invert the mass,
                apply wall conditions — at the simulated instant the next
                kernel starts, after the dependency guaranteed the RKL
                drain."""

                def prepare() -> None:
                    derivs[stage][:] = operator.finalize_residual(
                        _reduce_partials(accumulators[stage], storage)
                    )

                return prepare

            for stage in range(num_stages):
                if stage > 0:
                    # Stage-combination node stream:
                    # y_s = y + dt * sum(a_sk d_k).
                    actions = _rku_actions(
                        combine.template.plan, combine.blocks, rku_ctx,
                        y_step, derivs[:stage], tableau.a[stage, :stage],
                        self.dt, {"store_node_state": stage_states[stage]},
                        finalizer(stage - 1),
                    )
                    previous_drain = combine.instantiate(
                        subgraphs, self.iterations, f"{prefix}s{stage}.update",
                        actions, previous_drain,
                    )
                # RKL element streams of this stage, one chain per CU.
                previous_drain = rkl.instantiate(
                    subgraphs,
                    self.iterations,
                    f"{prefix}s{stage}.",
                    ctx=ctx,
                    state=stage_states[stage],
                    accumulators=accumulators[stage],
                    depends_on=previous_drain,
                )
            # The step's final RKU chain: b-row combination + primitive
            # update.
            actions = _rku_actions(
                update.template.plan, update.blocks, rku_ctx, y_step, derivs,
                tableau.b, self.dt,
                {
                    "store_node_state": out_state,
                    "store_node_primitives": out_primitives,
                },
                finalizer(num_stages - 1),
            )
            previous_drain = update.instantiate(
                subgraphs, self.iterations, f"{prefix}rku", actions,
                previous_drain,
            )
        self.out_state, self.out_primitives = out_state, out_primitives
        self.simulator = DataflowSimulator(
            merge_graphs(
                f"rkstep-{design.options.name}-{rkl.num_cus}cu", subgraphs
            )
        )

    def run(self, initial_state: FlowState, dt, engine) -> SimulationTrace:
        """Stream one call's step(s) from ``initial_state`` with ``dt``."""
        np.copyto(self.base, initial_state.as_stacked())
        self.dt[0] = dt
        for accumulator in self.accumulators:
            accumulator.fill(0)
        return self.simulator.run(self.iterations, engine=engine)


#: Each thread's last :class:`_StepPlan` (one entry, ``plan``). Not in
#: the mesh's memo: plan -> operator -> mesh would be a reference cycle
#: that keeps set-up meshes alive. Not in the design's price table
#: either, which grows without bound.
_PLANS = threading.local()


def _step_plan(
    design: AcceleratorDesign,
    mesh: HexMesh,
    gas,
    backend,
    dtype,
    *,
    block_size: int,
    num_cus: int | None,
    partitions,
    node_block_size: int,
    tableau: ButcherTableau,
    num_steps: int,
) -> _StepPlan:
    """The calling thread's :class:`_StepPlan` for this configuration,
    reused when its key matches and built (replacing it) otherwise.

    The key: the design, the mesh, the tableau and the resolved backend
    (its registry factory, or the instance) by identity; the backend
    name, the resolved precision policy (``dtype=None`` reads
    ``REPRO_DTYPE`` on every call), ``gas``, the sizes, the CU count
    and the partitions by value.
    """
    if isinstance(backend, KernelBackend):
        name, resolved = None, backend
        precision = (
            backend.precision if dtype is None
            else PrecisionPolicy.resolve(dtype)
        )
    else:
        name = resolve_backend_name(backend)
        resolved = registry._REGISTRY.get(name)
        precision = PrecisionPolicy.resolve(dtype)
    if partitions is not None:
        partitions = tuple(
            np.asarray(part, dtype=np.int64) for part in partitions
        )
    objects = (design, mesh, tableau, resolved)
    values = (
        name, precision, gas, block_size, num_cus,
        None if partitions is None
        else tuple((part.shape, part.tobytes()) for part in partitions),
        node_block_size, num_steps,
    )
    plan = getattr(_PLANS, "plan", None)
    if (
        plan is not None
        and all(a is b for a, b in zip(plan.objects, objects))
        and plan.values == values
    ):
        return plan
    _PLANS.plan = None  # release the old plan before building the new
    plan = _StepPlan(
        objects, values, design, mesh, gas,
        backend if name is None else name, precision,
        block_size=block_size, num_cus=num_cus, partitions=partitions,
        node_block_size=node_block_size, tableau=tableau,
        num_steps=num_steps,
    )
    _PLANS.plan = plan
    return plan


def cosimulate_rk_stage(
    design: AcceleratorDesign,
    mesh: HexMesh,
    dt: float | None = None,
    backend: str | None = None,
    case=None,
    initial_state: FlowState | None = None,
    block_size: int = 1,
    num_cus: int | None = None,
    partitions=None,
    node_block_size: int = 32,
    tableau: ButcherTableau = RK4,
    num_steps: int = 1,
    engine: str = "vectorized",
    num_workers: int | None = None,
    dtype: str | None = None,
    verify: bool = True,
) -> RKStepCosimResult:
    """Co-simulate complete RK time steps: RKL streamed into RKU.

    The one payload-carrying co-simulation entry point. Every RK stage's
    element stream (the shared sharded RKL lowering, as in
    :func:`streamed_residual`) and every stage combination's node stream
    (the :func:`~repro.pipeline.rk_update.rk_update_pipeline` lowering)
    run as task chains of ONE merged dataflow graph under ONE simulator
    clock, sequenced the way the host runtime sequences the kernels:
    each chain's entry task carries a
    :attr:`~repro.dataflow.task.Task.depends_on` dependency on the
    previous chain's drain (stage ``s`` RKL waits for combination ``s``,
    combination ``s + 1`` waits for every stage-``s`` RKL shard, and the
    final RKU chain — axpy with the ``b`` row plus the primitive update
    — waits for the last stage). The payload-carrying tokens compute the
    *actual* step: the result must match the functional
    :meth:`repro.solver.simulation.Simulation.step` to rounding error,
    each stage's RKL window equals :func:`exact_rkl_stage_cycles`, and
    the RKU chain's trace cycles must agree with the
    :meth:`~repro.accel.designs.AcceleratorDesign.rku_step_cycles`
    closed form — all asserted by the test suite.

    The launch set-up (operator, lowered chains, staging arrays and the
    wired graph) is the calling thread's :class:`_StepPlan`, rebuilt only
    when the design, mesh, backend, precision, gas, sharding, block
    sizes, tableau or step count change; ``dt``, ``initial_state``,
    ``engine`` and ``verify`` are read per call.

    Parameters
    ----------
    design:
        Accelerator design point pricing both pipelines.
    mesh:
        The (small) mesh whose step is co-simulated.
    dt:
        Step size (``None`` uses the CFL controller's stable step).
    backend:
        Compute backend of the payloads and of the checking solve
        (``None`` defers to ``REPRO_BACKEND``, then ``"reference"``).
    case / initial_state:
        The physics (defaults: the TGV case on its standard initial
        condition), so wall-bounded workloads such as the channel shear
        flow co-simulate too.
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
        (:meth:`~repro.dataflow.simulator.DataflowSimulator.run`):
        ``"vectorized"`` (default) runs the streaming actions' batched
        forms; ``"event"`` is the per-token oracle.
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
        :func:`streamed_residual`, or on ``node_block_size < 1`` or
        ``num_steps < 1``.
    """
    require_serial_workers(num_workers)
    if case is None:
        case = DEFAULT_TGV
    if num_steps < 1:
        raise ExperimentError("num_steps must be >= 1")
    gas = case.gas()
    plan = _step_plan(
        design, mesh, gas, backend, dtype,
        block_size=block_size, num_cus=num_cus, partitions=partitions,
        node_block_size=node_block_size, tableau=tableau,
        num_steps=num_steps,
    )
    if initial_state is None:
        initial_state = taylor_green_initial(mesh.coords, case)
    initial_state.validate()
    if dt is None:
        dt = cfl_time_step(mesh, initial_state, gas)
    try:
        trace = plan.run(initial_state, dt, engine)
    except BaseException:
        # A half-run leaves the staging arrays and the backend's
        # workspaces in no known state: the next call builds afresh.
        _PLANS.plan = None
        raise
    # Fresh arrays: the plan's outputs are overwritten by the next call.
    final_state = FlowState.from_stacked(plan.out_state)
    primitives = plan.out_primitives.copy()

    state_err = None
    if verify:
        # Functional reference: the very steps the solver would take.
        sim = Simulation(
            mesh, case, tableau=tableau, backend=backend,
            initial_state=initial_state, dtype=dtype,
        )
        for _ in range(num_steps):
            sim.step(dt)
        expected = sim.state.as_stacked()
        scale = float(np.abs(expected).max())
        state_err = float(np.abs(plan.out_state - expected).max()) / (
            scale if scale > 0.0 else 1.0
        )

    rkl, prefixes = plan.rkl, plan.step_prefixes
    per_stage = tuple(
        rkl.window(trace, f"{prefix}s{stage}.")
        for prefix in prefixes
        for stage in range(tableau.num_stages)
    )
    rku_cycles = plan.update.window(trace, f"{prefixes[-1]}rku")
    return RKStepCosimResult(
        trace=trace,
        final_state=final_state,
        primitives=primitives,
        dt=dt,
        num_stages=tableau.num_stages,
        state_max_rel_err=state_err,
        per_stage_rkl_cycles=per_stage,
        rku_simulated_cycles=rku_cycles,
        rku_analytic_cycles=design.rku_step_cycles(mesh.num_nodes),
        num_compute_units=rkl.num_cus,
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
    closed forms: ``rkl_seconds_per_stage`` is the stage window
    (:attr:`RKStepCosimResult.rkl_stage_cycles`, max over compute units)
    and ``rku_seconds_per_step`` the RKU chain's window, each converted
    at the clock of the run's CU count
    (:meth:`~repro.accel.designs.AcceleratorDesign.floorplan_for`) —
    the trace-derived counterpart of :func:`design_timing` with
    ``num_cus=result.num_compute_units``, directly comparable against
    it. ``design`` must be the design the co-simulation ran.
    """
    num_cus = result.num_compute_units
    clock = design.clock_for(num_cus)
    hz = clock * 1e6
    return DesignTiming(
        design_name=design.options.name,
        num_nodes=result.final_state.num_nodes,
        num_elements=result.num_elements,
        clock_mhz=clock,
        rkl_seconds_per_stage=seconds_from_cycles(result.rkl_stage_cycles, hz),
        rku_seconds_per_step=seconds_from_cycles(
            result.rku_simulated_cycles, hz
        ),
        num_stages=result.num_stages,
        num_compute_units=num_cus,
    )
