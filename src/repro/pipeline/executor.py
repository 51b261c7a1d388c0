"""Executing an operator pipeline.

Four execution styles over one IR:

- :func:`run_pipeline` — whole-mesh functional execution on batched numpy
  arrays (the RK-update pipelines, and the whole-mesh oracle the blocked
  residual is tested against), with each stage attributed to its
  profiler phase;
- :func:`run_blocked_pipeline` — the same result, computed one element
  block at a time and assembled once; this is what
  :meth:`NavierStokesOperator.residual` runs;
- :func:`element_residuals` — compute-only execution on an already
  gathered element state (the solver's per-pass diagnostics helpers);
- :func:`streaming_actions` — payload-carrying actions for the
  cycle-accurate dataflow simulator: the co-simulator prices *and
  computes* the same stages, one *block* per pipeline iteration. It is
  the one streaming lowering of both halves of the RK step — element
  blocks of the RKL pipeline, node blocks of the RK-update pipeline —
  and the caller supplies only the data binding (how a block views the
  context, loads its external payloads and stores its results).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import PipelineError
from .ir import OperatorPipeline, Stage
from .kernels import PipelineContext, pad_to_conserved, pipeline_kernel


def _run_stage(
    ctx: PipelineContext, stage: Stage, env: dict[str, np.ndarray]
) -> None:
    """Execute one stage against ``env``, binding its outputs."""
    try:
        args = [env[name] for name in stage.inputs]
    except KeyError as exc:
        raise PipelineError(
            f"stage {stage.name!r}: missing input payload {exc.args[0]!r}"
        ) from None
    outs = pipeline_kernel(stage.kernel)(ctx, stage, *args)
    if len(outs) != len(stage.outputs):
        raise PipelineError(
            f"stage {stage.name!r}: kernel {stage.kernel!r} returned "
            f"{len(outs)} payload(s), declared {len(stage.outputs)}"
        )
    for name, value in zip(stage.outputs, outs):
        env[name] = value


def _run_stages(
    ctx: PipelineContext,
    stages: Sequence[Stage],
    env: dict[str, np.ndarray],
    profiler=None,
) -> None:
    """Execute ``stages`` in order, each inside its profiler phase."""
    for stage in stages:
        if profiler is None:
            _run_stage(ctx, stage, env)
        else:
            with profiler.phase(stage.phase):
                _run_stage(ctx, stage, env)


def run_pipeline(
    pipeline: OperatorPipeline,
    ctx: PipelineContext,
    inputs: Mapping[str, np.ndarray],
    profiler=None,
) -> dict[str, np.ndarray]:
    """Execute the whole pipeline functionally; returns its output payloads.

    Parameters
    ----------
    pipeline / ctx:
        The stage graph and the bound execution context.
    inputs:
        Must bind every external payload (for the NS pipelines:
        ``{"state": (5, N)}``).
    profiler:
        Optional :class:`~repro.solver.profiler.PhaseProfiler`; each
        stage runs inside its declared phase so the paper's Fig. 2
        attribution emerges from the IR.

    Returns
    -------
    dict[str, numpy.ndarray]
        The pipeline's output payloads by name.

    Raises
    ------
    PipelineError
        On unbound external payloads, unknown kernels, or a kernel
        returning the wrong payload count.
    """
    missing = [n for n in pipeline.external_inputs() if n not in inputs]
    if missing:
        raise PipelineError(
            f"pipeline {pipeline.name!r}: unbound external payload(s) "
            f"{missing}"
        )
    env: dict[str, np.ndarray] = dict(inputs)
    _run_stages(ctx, pipeline.topological_order(), env, profiler)
    return {name: env[name] for name in pipeline.output_payloads()}


def run_blocked_pipeline(
    pipeline: OperatorPipeline,
    ctx: PipelineContext,
    blocks: Sequence[tuple[slice | np.ndarray, PipelineContext]],
    inputs: Mapping[str, np.ndarray],
    profiler=None,
) -> dict[str, np.ndarray]:
    """:func:`run_pipeline` of an element pipeline, one block at a time.

    The accelerator's LOAD -> COMPUTE -> STORE schedule on the host:
    every non-store stage runs on one block's context, so gathered
    state, gradients, flux payloads and divergences only ever exist at
    block size. Each store stage's input is written into one whole-mesh
    ``(F, E, Q)`` array, and after the last block each store stage runs
    once on ``ctx`` — scatter order, and so every result, is bitwise
    that of :func:`run_pipeline`, phases included.

    ``blocks`` holds ``(elements, block context)`` pairs covering every
    element once: ``elements`` (a slice or index array) picks the
    block's rows of the element axis, and the context is
    ``ctx.element_block(elements)``. Every pipeline output must come
    from a store stage.
    """
    order = pipeline.topological_order()
    stores = [stage for stage in order if stage.role == "store"]
    element_stages = [stage for stage in order if stage.role != "store"]
    env: dict[str, np.ndarray] = dict(inputs)
    for elements, block_ctx in blocks:
        block_env = dict(inputs)
        _run_stages(block_ctx, element_stages, block_env, profiler)
        for stage in stores:
            name = stage.inputs[0]
            value = block_env[name]
            if name not in env:
                env[name] = np.empty(
                    (value.shape[0], ctx.num_elements) + value.shape[2:],
                    dtype=value.dtype,
                )
            env[name][:, elements] = value
    _run_stages(ctx, stores, env, profiler)
    return {name: env[name] for name in pipeline.output_payloads()}


def assembled_total(outputs: Mapping[str, np.ndarray]) -> np.ndarray:
    """Sum of a pipeline's assembled ``(5, N)`` output payloads.

    Raises :class:`~repro.errors.PipelineError` when ``outputs`` is
    empty (a pipeline that produced nothing).
    """
    total: np.ndarray | None = None
    for value in outputs.values():
        total = value if total is None else total + value
    if total is None:
        raise PipelineError("pipeline produced no output payloads")
    return total


def element_residuals(
    pipeline: OperatorPipeline,
    ctx: PipelineContext,
    state_elem: np.ndarray,
    phases: Sequence[str] | None = None,
) -> np.ndarray:
    """Per-element residuals ``(5, E, Q)`` of the pipeline's compute stages.

    Load stages are short-circuited with the provided gathered state and
    store stages are skipped; each store input is padded to the full
    conserved set at its ``field_start``. ``phases`` restricts execution
    to one branch (e.g. ``("rk.convection",)``) of a multi-pass pipeline.
    """
    env: dict[str, np.ndarray] = {}
    compute: list[Stage] = []
    stores: list[Stage] = []
    for stage in pipeline.topological_order():
        if stage.role == "load":
            env[stage.outputs[0]] = state_elem
        elif phases is None or stage.phase in phases:
            (stores if stage.role == "store" else compute).append(stage)
    _run_stages(ctx, compute, env)
    total: np.ndarray | None = None
    for stage in stores:
        padded = pad_to_conserved(
            env[stage.inputs[0]], int(stage.param("field_start", 0))
        )
        total = padded if total is None else total + padded
    if total is None:
        raise PipelineError(
            f"pipeline {pipeline.name!r}: no store stage matched "
            f"phases={phases}"
        )
    return total


# ---------------------------------------------------------------------------
# Streaming (one block per pipeline iteration) for co-simulation
# ---------------------------------------------------------------------------

Action = Callable[[int, tuple], object]

#: One role group of a :class:`StreamingPlan`.
RoleGroup = tuple[str, tuple[Stage, ...], tuple[str, ...], frozenset[str]]


@dataclass(frozen=True)
class StreamingPlan:
    """A pipeline's role groups as :func:`streaming_actions` runs them.

    Each group is ``(role, stages, exported, needed)``: its stages in
    topological order, the payloads a different group consumes (only
    those travel through the simulated inter-task buffers), and every
    payload its stages read. Derived once per lowered chain structure
    (:func:`streaming_plan`), not per streamed chain.
    """

    #: The pipeline's name.
    name: str
    groups: tuple[RoleGroup, ...]
    #: :meth:`OperatorPipeline.external_inputs` of the pipeline.
    external_inputs: tuple[str, ...]


def streaming_plan(pipeline: OperatorPipeline) -> StreamingPlan:
    """The :class:`StreamingPlan` of ``pipeline``.

    Raises :class:`~repro.errors.PipelineError` if the pipeline's role
    grouping (:meth:`OperatorPipeline.role_groups`) is not a legal task
    chain.
    """
    groups = pipeline.role_groups()
    group_of = {
        stage.name: index
        for index, (_, stages) in enumerate(groups)
        for stage in stages
    }
    plan = []
    for index, (role, stages) in enumerate(groups):
        exported = tuple(
            out
            for stage in stages
            for out in stage.outputs
            if any(
                group_of[consumer.name] != index
                for consumer in pipeline.consumers_of(out)
            )
        )
        needed = frozenset(name for stage in stages for name in stage.inputs)
        plan.append((role, tuple(stages), exported, needed))
    return StreamingPlan(
        pipeline.name, tuple(plan), tuple(pipeline.external_inputs())
    )


def streaming_actions(
    plan: StreamingPlan,
    blocks: Sequence[slice | np.ndarray],
    view: Callable[[slice | np.ndarray], object],
    load: Callable[[slice | np.ndarray, frozenset[str]], dict[str, object]],
    store: Callable[[Stage, np.ndarray, object, slice | np.ndarray], None],
    prepare: Callable[[], None] | None = None,
) -> dict[str, Action]:
    """Payload-carrying task actions, one block of the stream per token.

    The one streaming lowering of both halves of the RK step (RKL element
    blocks, RK-update node blocks): it owns the plumbing, and the caller
    supplies only the data binding — ``view``, ``load`` and ``store``.

    Parameters
    ----------
    plan:
        The :func:`streaming_plan` of the operator pipeline whose role
        groups become the simulated LOAD / COMPUTE / STORE tasks.
    blocks:
        One token per pipeline iteration: consecutive slices of a
        contiguous stream (:func:`repro.mesh.partition.slice_blocks`),
        or index arrays of an explicit non-contiguous shard
        (:func:`repro.mesh.partition.element_blocks`).
    view:
        ``view(block)`` — the context the block's stages run on.
    load:
        ``load(block, names)`` — a fresh dict binding the external
        payloads a group reads (``names``: its stages' inputs). It runs
        when the task starts, so a chain sequenced before this one (via
        :attr:`~repro.dataflow.task.Task.depends_on`) may fill the
        global arrays during the same simulation.
    store:
        ``store(stage, value, context, block)`` — writes a store stage's
        input ``value`` for ``block``.
    prepare:
        Optional callback run once, at the first LOAD — how the chained
        full-step co-simulation finalizes the upstream stage at the
        simulated instant this kernel launches.

    Returns
    -------
    dict[str, Action]
        One action per role group (keyed ``"load"`` / ``"compute"`` /
        ``"store"``) for :meth:`OperatorPipeline.to_task_graph`: it runs
        its group's stages on block ``iteration``, passing the payloads
        that cross group borders through the simulated buffers as dicts
        (STORE returns ``None``). Each action's ``batch`` attribute is
        the form the vectorized schedule engine
        (:mod:`repro.dataflow.schedule`) calls once per task: the same
        stages over the concatenation of the first ``count`` blocks —
        one slice for slice tokens — numerically the per-token stream
        (``np.add.at`` applies the concatenated indices in block order),
        with one ``None`` sink value per token from STORE.

    Raises
    ------
    PipelineError
        If a batched form spans slice tokens that are not consecutive.
    """
    # The batched forms of all role groups share one concatenated block
    # and its context per token count.
    concatenated: dict[int, tuple[slice | np.ndarray, object]] = {}

    def batch_view(count: int) -> tuple[slice | np.ndarray, object]:
        if count not in concatenated:
            head = blocks[:count]
            if not isinstance(head[0], slice):
                block = np.concatenate(head)
            elif any(a.stop != b.start for a, b in zip(head, head[1:])):
                raise PipelineError("slice tokens must be consecutive")
            else:
                block = slice(head[0].start, head[-1].stop)
            concatenated[count] = (block, view(block))
        return concatenated[count]

    def run_group(block, context, group, inputs, first):
        """Execute one role group on ``block``; dict of exports."""
        role, stages, exported, needed = group
        if role == "load" and first and prepare is not None:
            prepare()
        env = load(block, needed)
        for payload in inputs:
            env.update(payload)
        if role == "store":
            for stage in stages:
                store(stage, env[stage.inputs[0]], context, block)
            return None
        for stage in stages:
            _run_stage(context, stage, env)
        return {name: env[name] for name in exported}

    actions: dict[str, Action] = {}
    for group in plan.groups:

        def action(iteration: int, inputs: tuple, group=group):
            block = blocks[iteration]
            return run_group(
                block, view(block), group, inputs, first=iteration == 0
            )

        def batch(count: int, inputs: tuple, group=group):
            result = run_group(*batch_view(count), group, inputs, first=True)
            return [None] * count if group[0] == "store" else result

        action.batch = batch
        actions[group[0]] = action
    return actions
