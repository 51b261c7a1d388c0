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
  computes* the same stages, one element *block* per pipeline iteration
  (block size 1 recovers element-at-a-time streaming).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

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
# Streaming (one element block per pipeline iteration) for co-simulation
# ---------------------------------------------------------------------------

Action = Callable[[int, tuple], object]


def role_group_exports(
    pipeline: OperatorPipeline,
) -> list[tuple[str, list[Stage], list[str]]]:
    """Role groups plus the payloads each exports across group borders.

    Shared plumbing of the streaming lowerings (the element stream here
    and the RK-update node stream in :mod:`repro.pipeline.rk_update`):
    per role group of :meth:`OperatorPipeline.role_groups`, the payloads
    consumed by a *different* group are the ones that must travel
    through the simulated inter-task buffers.
    """
    groups = pipeline.role_groups()
    group_index = {
        stage.name: idx
        for idx, (_, stages) in enumerate(groups)
        for stage in stages
    }
    plan: list[tuple[str, list[Stage], list[str]]] = []
    for idx, (role, stages) in enumerate(groups):
        exported: list[str] = []
        for stage in stages:
            for out in stage.outputs:
                consumers = pipeline.consumers_of(out)
                if any(group_index[c.name] != idx for c in consumers):
                    exported.append(out)
        plan.append((role, stages, exported))
    return plan


def streaming_actions(
    pipeline: OperatorPipeline,
    ctx: PipelineContext,
    state: np.ndarray,
    accumulator: np.ndarray,
    blocks: Sequence[np.ndarray] | None = None,
) -> dict[str, Action]:
    """Payload-carrying task actions for the element dataflow graph.

    Parameters
    ----------
    pipeline:
        The operator pipeline whose role groups become the simulated
        LOAD / COMPUTE / STORE tasks.
    ctx:
        Bound execution context (connectivity, metric terms, backend)
        covering the whole mesh; each iteration takes a block view.
    state:
        Global stacked state ``(5, N)`` every LOAD gathers from.
    accumulator:
        Output array ``(5, N)`` the STORE group assembles element
        contributions into. For a sharded (multi-CU) run, pass one
        accumulator per CU and sum them afterwards — that sum is the
        reduction of the per-CU partial residuals.
    blocks:
        Element-index arrays, one per simulator iteration (see
        :func:`repro.mesh.partition.element_blocks`); ``None`` means one
        single-element block per mesh element — the pre-batching
        behaviour. Token ``i`` of the simulation carries block ``i``.

    Returns
    -------
    dict[str, Action]
        One action per role group (keyed ``"load"`` / ``"compute"`` /
        ``"store"``) for :meth:`OperatorPipeline.to_task_graph`. Each
        action executes its group's stages on block ``iteration`` only,
        passing the payloads that cross group boundaries through the
        simulated inter-task buffers as dicts.

        Every action also carries a ``batch`` attribute — the batched
        form the vectorized schedule engine
        (:mod:`repro.dataflow.schedule`) calls once per task instead of
        once per token: the same stages over the concatenation of all
        blocks, numerically the per-token stream in one numpy call
        (scatter order included, since ``np.add.at`` applies the
        concatenated indices in block order).

    Raises
    ------
    PipelineError
        If the pipeline does not have exactly one external payload (the
        global state) or its role grouping is not a legal task chain.
    """
    # Dtype-preserving: float32 states stream float32 element payloads
    # (the device-faithful precision mode); the accumulator's dtype picks
    # the STORE reduction precision, exactly like the backends' policy.
    state = np.asarray(state)
    if blocks is None:
        blocks = [
            np.array([index], dtype=np.int64)
            for index in range(ctx.num_elements)
        ]
    else:
        blocks = [np.asarray(block, dtype=np.int64) for block in blocks]
    externals = pipeline.external_inputs()
    if len(externals) != 1:
        raise PipelineError(
            f"pipeline {pipeline.name!r}: streaming execution expects one "
            f"external payload (the global state), found {externals}"
        )
    (state_payload,) = externals

    # One batched run shares the concatenated-block context between the
    # LOAD / COMPUTE / STORE batch calls (connectivity and metric views
    # are state-independent, so caching per token count is safe).
    batch_ctx_cache: dict[int, PipelineContext] = {}

    def batch_ctx(count: int) -> PipelineContext:
        if count not in batch_ctx_cache:
            batch_ctx_cache[count] = ctx.element_block(
                np.concatenate(blocks[:count])
            )
        return batch_ctx_cache[count]

    def run_group(ectx, stages, exported, role, env, count=None):
        """Execute one role group against ``env``; dict of exports."""
        if role == "store":
            # The STORE kernel's read-modify-write, restricted to the
            # streamed nodes: a block touches B*Q node slots, so the
            # dense (5, N) scatter the batched kernel produces would
            # make streaming quadratic in mesh size.
            for stage in stages:
                res = env[stage.inputs[0]]  # (F, B, Q)
                start = int(stage.param("field_start", 0))
                for field in range(res.shape[0]):
                    np.add.at(
                        accumulator[start + field],
                        ectx.connectivity,
                        res[field],
                    )
            return None
        for stage in stages:
            _run_stage(ectx, stage, env)
        return {name: env[name] for name in exported}

    actions: dict[str, Action] = {}
    for role, stages, exported in role_group_exports(pipeline):

        def action(
            iteration: int,
            inputs: tuple,
            stages=stages,
            exported=exported,
            role=role,
        ):
            env: dict[str, np.ndarray] = {state_payload: state}
            for payload in inputs:
                env.update(payload)
            return run_group(
                ctx.element_block(blocks[iteration]),
                stages,
                exported,
                role,
                env,
            )

        def batch(
            count: int,
            inputs: tuple,
            stages=stages,
            exported=exported,
            role=role,
        ):
            env: dict[str, np.ndarray] = {state_payload: state}
            for payload in inputs:
                env.update(payload)
            result = run_group(
                batch_ctx(count), stages, exported, role, env
            )
            if role == "store":
                return [None] * count  # per-token sink values
            return result

        action.batch = batch
        actions[role] = action
    return actions
