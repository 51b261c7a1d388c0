"""The RK update (RKU) as a second operator-pipeline instance.

The paper's accelerator runs a *complete* RK time step on the device:
RKL — the FEM spatial operator — streams elements, and RKU — the
Runge-Kutta update on SLR1 — streams *nodes*, combining the stage
derivatives (axpy) and re-deriving the primitive set ``rho, u, T, E, p``.
This module pins the RKU half down as IR, exactly the way
:mod:`repro.pipeline.navier_stokes` pins down RKL:

- :func:`rk_update_pipeline` builds the node pipeline
  LOAD state/derivs -> stage-combination axpy [-> primitive update] ->
  STORE;
- the kernels registered here (``stage_axpy``, ``update_primitives``,
  the node load/stores) are the callable stage bodies, shape-polymorphic
  over the node axis so the same kernel serves the solver's whole-mesh
  execution and the co-simulator's node-block streaming;
- the streaming lowering is the element pipeline's own
  :func:`~repro.pipeline.executor.streaming_actions`, bound to node
  blocks by :mod:`repro.accel.cosim` — one node block per simulated
  token through the LOAD -> COMPUTE -> STORE task chain
  (:data:`RK_UPDATE_TASK_NAMES`).

One IR instance serves the same three consumers as the RKL pipeline:
:meth:`Simulation.step <repro.solver.simulation.Simulation.step>`
executes it functionally via
:func:`~repro.pipeline.executor.run_pipeline` (its preallocated-buffer
fast path is the :func:`~repro.pipeline.rewrites.bind_stage_buffers`
graph rewrite), :func:`repro.accel.cosim.cosimulate_rk_stage` streams it
cycle-accurately chained after the RKL element stream, and
:mod:`repro.solver.workload` derives the RKU op counts from its stages
(:func:`repro.pipeline.opcounts.stage_op_count`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from ..errors import PipelineError
from ..physics.gas import GasProperties
from ..precision.modes import FLOAT64_POLICY, PrecisionPolicy
from .ir import OperatorPipeline, PayloadSpec, Stage
from .kernels import register_pipeline_kernel

#: Default task names of the lowered RKU node chain (the names the
#: full-step co-simulation and its reports know).
RK_UPDATE_TASK_NAMES: Mapping[str, str] = {
    "load": "load_node_state",
    "compute": "update_node",
    "store": "store_node_state",
}


@dataclass
class RKUpdateContext:
    """Bound execution context of the RK-update pipeline.

    Unlike the element pipeline's
    :class:`~repro.pipeline.kernels.PipelineContext`, the node stream
    needs no mesh wiring — only the gas model (for the primitive update)
    and, optionally, the preallocated buffers that the
    :func:`~repro.pipeline.rewrites.bind_stage_buffers` rewrite names in
    stage params. A pipeline with no buffer bindings allocates its
    outputs, which is what the per-block streaming path uses.
    """

    gas: GasProperties
    buffers: dict[str, np.ndarray] | None = None
    #: Precision policy governing the dtype of *unbound* accumulation
    #: buffers (``acc``/``scratch``) the axpy kernel allocates — the
    #: node-stream analogue of the backends' scatter-add policy. Bound
    #: buffers carry their own dtype.
    precision: PrecisionPolicy = FLOAT64_POLICY

    def buffer(self, stage: Stage, key: str) -> np.ndarray | None:
        """The preallocated buffer a stage param names (None if unbound).

        Raises :class:`~repro.errors.PipelineError` when the stage names
        a buffer the context does not carry.
        """
        name = stage.param(key)
        if name is None:
            return None
        if self.buffers is None or name not in self.buffers:
            raise PipelineError(
                f"stage {stage.name!r}: no buffer {name!r} bound in context"
            )
        return self.buffers[name]


# ---------------------------------------------------------------------------
# The registered node-stream kernels
# ---------------------------------------------------------------------------


@register_pipeline_kernel("load_node_state")
def _load_node_state(ctx: RKUpdateContext, stage: Stage, state: np.ndarray):
    """LOAD-node: the ``(5, B)`` conservative state of the node block.

    The node stream is a contiguous burst read (no connectivity
    indirection), so the kernel is a pass-through: the streaming
    actions hand it a read-only view of the block's slice of the global
    state, and nothing is copied.
    """
    return (state,)


@register_pipeline_kernel("load_node_derivs")
def _load_node_derivs(ctx: RKUpdateContext, stage: Stage, derivs):
    """LOAD-node: the stage derivatives (sequence of ``(5, B)`` arrays)."""
    return (derivs,)


@register_pipeline_kernel("stage_axpy")
def _stage_axpy(
    ctx: RKUpdateContext,
    stage: Stage,
    state: np.ndarray,
    derivs,
    coeffs,
    dt,
):
    """RK stage combination ``state + dt * sum_k coeffs[k] * derivs[k]``.

    Zero coefficients are skipped; when every coefficient is zero the
    input state passes through untouched (the identity stage
    combination). The accumulation runs in the ``acc``/``scratch``
    buffers and the result in the ``out`` buffer when the
    :func:`~repro.pipeline.rewrites.bind_stage_buffers` rewrite bound
    them — the solver's steady-state loop then performs no per-stage
    allocations.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    acc_dtype = ctx.precision.accumulate_for(np.asarray(state).dtype)
    acc = scratch = None
    first = True
    for deriv, coeff in zip(derivs, coeffs):
        c = float(coeff)
        if c == 0.0:
            continue
        if first:
            acc = ctx.buffer(stage, "acc")
            if acc is None:
                acc = np.empty(state.shape, dtype=acc_dtype)
            np.multiply(deriv, c, out=acc)
            first = False
        else:
            if scratch is None:
                scratch = ctx.buffer(stage, "scratch")
                if scratch is None:
                    scratch = np.empty(state.shape, dtype=acc_dtype)
            np.multiply(deriv, c, out=scratch)
            acc += scratch
    if first:
        return (state,)
    out = ctx.buffer(stage, "out")
    if out is None:
        out = np.empty_like(state)
    np.multiply(acc, float(dt), out=out)
    out += state
    return (out,)


@register_pipeline_kernel("update_primitives")
def _update_primitives(ctx: RKUpdateContext, stage: Stage, combined: np.ndarray):
    """The RKU primitive update: ``u, T, p`` from the combined state.

    One ``(5, B)`` array ordered ``u, v, w, T, p`` — exactly the
    quantities the paper's five RKU update loops write back (``rho`` and
    ``E`` are rows 0 and 4 of the conservative state the store stage
    already writes).
    """
    rho = combined[0]
    momentum = combined[1:4]
    total_energy = combined[4]
    out = ctx.buffer(stage, "out")
    if out is None:
        out = np.empty_like(combined)
    velocity = out[0:3]
    np.divide(momentum, rho[None], out=velocity)
    kinetic = 0.5 * np.sum(momentum * velocity, axis=0)
    internal = total_energy - kinetic
    np.divide(internal, rho * ctx.gas.cv, out=out[3])
    np.multiply(internal, ctx.gas.gamma - 1.0, out=out[4])
    return (out,)


def _store(ctx: RKUpdateContext, stage: Stage, value: np.ndarray):
    """STORE-node: stream the block back (copy only when re-homed)."""
    out = ctx.buffer(stage, "out")
    if out is None or out is value:
        return (value,)
    np.copyto(out, value)
    return (out,)


register_pipeline_kernel("store_node_state")(_store)
register_pipeline_kernel("store_node_primitives")(_store)


# ---------------------------------------------------------------------------
# The pipeline instances
# ---------------------------------------------------------------------------


def _build(primitives: bool, num_terms: int) -> OperatorPipeline:
    variant = "step" if primitives else "combine"
    p = OperatorPipeline(name=f"rk-update[{variant}]")
    for spec in (
        PayloadSpec(
            "state", ("F", "N"), "stacked conservative state",
            dtype="storage",
        ),
        PayloadSpec(
            "derivs", ("K", "F", "N"), "finalized stage derivatives",
            dtype="storage",
        ),
        PayloadSpec("coeffs", ("K",), "tableau row of stage weights"),
        PayloadSpec("dt", (), "time-step size"),
        PayloadSpec("node_state", ("F", "N"), dtype="storage"),
        PayloadSpec("node_derivs", ("K", "F", "N"), dtype="storage"),
        PayloadSpec(
            "combined", ("F", "N"), "stage-combined state", dtype="storage"
        ),
        PayloadSpec("updated_state", ("F", "N"), dtype="storage"),
    ):
        p.declare_payload(spec)
    p.add_stage(
        Stage(
            "load_state",
            role="load",
            kernel="load_node_state",
            inputs=("state",),
            outputs=("node_state",),
            phase="rk.update",
        )
    )
    p.add_stage(
        Stage(
            "load_derivs",
            role="load",
            kernel="load_node_derivs",
            inputs=("derivs",),
            outputs=("node_derivs",),
            phase="rk.update",
            params={"num_terms": num_terms},
        )
    )
    p.add_stage(
        Stage(
            "stage_axpy",
            role="compute",
            kernel="stage_axpy",
            inputs=("node_state", "node_derivs", "coeffs", "dt"),
            outputs=("combined",),
            phase="rk.update",
            params={"num_terms": num_terms},
        )
    )
    if primitives:
        p.declare_payload(
            PayloadSpec(
                "primitives", (5, "N"), "u, v, w, T, p per node",
                dtype="storage",
            )
        )
        p.declare_payload(
            PayloadSpec("stored_primitives", (5, "N"), dtype="storage")
        )
        p.add_stage(
            Stage(
                "update_primitives",
                role="compute",
                kernel="update_primitives",
                inputs=("combined",),
                outputs=("primitives",),
                phase="rk.update",
            )
        )
        p.add_stage(
            Stage(
                "store_primitives",
                role="store",
                kernel="store_node_primitives",
                inputs=("primitives",),
                outputs=("stored_primitives",),
                phase="rk.update",
            )
        )
    p.add_stage(
        Stage(
            "store_state",
            role="store",
            kernel="store_node_state",
            inputs=("combined",),
            outputs=("updated_state",),
            phase="rk.update",
        )
    )
    p.validate()
    return p


@lru_cache(maxsize=None)
def _cached(primitives: bool, num_terms: int) -> OperatorPipeline:
    if num_terms < 1:
        raise PipelineError(f"num_terms must be >= 1, got {num_terms}")
    return _build(primitives, num_terms)


def rk_update_pipeline(
    primitives: bool = True, num_terms: int = 1
) -> OperatorPipeline:
    """The RK-update pipeline instance.

    Parameters
    ----------
    primitives:
        ``True`` builds the full step update — stage combination plus
        the RKU primitive update ``rho, u, T, E, p`` (the per-step
        variant). ``False`` builds the combination-only variant the
        intermediate RK stages run (``rk-update[combine]``).
    num_terms:
        Number of derivative terms in the combination (an op-count hint
        carried in the ``stage_axpy``/``load_derivs`` params — the
        executed term count is whatever ``coeffs`` binds at run time).

    Returns
    -------
    OperatorPipeline
        External payloads ``state``, ``derivs``, ``coeffs``, ``dt``;
        outputs ``updated_state`` (and ``stored_primitives``).
        Construction is cached but every call returns its own shallow
        copy, so callers may rewrite their instance freely.

    Raises
    ------
    PipelineError
        If ``num_terms < 1``.
    """
    cached = _cached(bool(primitives), int(num_terms))
    return OperatorPipeline(
        name=cached.name,
        stages=list(cached.stages),
        payloads=dict(cached.payloads),
    )
