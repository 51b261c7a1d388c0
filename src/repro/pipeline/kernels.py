"""Pipeline kernels: the callable bodies the IR stages name.

Each kernel is a pure function ``fn(ctx, stage, *inputs) -> (outputs,)``
operating on batched element arrays (``(F, E, Q)`` fields,
``(F, E, Q, 3)`` fluxes). They are shape-polymorphic over the element
axis, so the same kernel serves whole-mesh evaluation, the solver's
blocked residual and the co-simulator's streaming at any granularity
(:meth:`PipelineContext.element_block`).

All array work routes through the context's
:class:`~repro.backend.KernelBackend` — the pipeline IR is the *what*,
the backend is the *how*.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from ..backend import KernelBackend
from ..errors import PipelineError
from ..fem.geometry import ElementGeometry
from ..fem.reference import ReferenceHex
from ..physics.fluxes import convective_fluxes, viscous_fluxes
from ..physics.gas import GasProperties
from ..physics.state import NUM_CONSERVED
from .ir import Stage

KernelFn = Callable[..., tuple[np.ndarray, ...]]

#: Registry of pipeline kernels by name (the names IR stages carry).
PIPELINE_KERNELS: dict[str, KernelFn] = {}


def register_pipeline_kernel(name: str) -> Callable[[KernelFn], KernelFn]:
    """Decorator registering a kernel under ``name``."""

    def deco(fn: KernelFn) -> KernelFn:
        PIPELINE_KERNELS[name] = fn
        return fn

    return deco


def pipeline_kernel(name: str) -> KernelFn:
    """Kernel lookup with a precise error."""
    try:
        return PIPELINE_KERNELS[name]
    except KeyError:
        raise PipelineError(
            f"unknown pipeline kernel {name!r}; known: "
            f"{sorted(PIPELINE_KERNELS)}"
        ) from None


@dataclass
class PipelineContext:
    """Bound execution context: mesh wiring, metric terms, gas, backend."""

    connectivity: np.ndarray
    num_nodes: int
    geom: ElementGeometry
    ref: ReferenceHex
    gas: GasProperties
    backend: KernelBackend

    @classmethod
    def from_operator(cls, operator) -> "PipelineContext":
        """Context of a :class:`~repro.solver.navier_stokes.NavierStokesOperator`."""
        return cls(
            connectivity=operator.mesh.connectivity,
            num_nodes=operator.mesh.num_nodes,
            geom=operator.geom,
            ref=operator.ref,
            gas=operator.gas,
            backend=operator.backend,
        )

    @property
    def num_elements(self) -> int:
        return int(self.connectivity.shape[0])

    def element_block(self, indices: np.ndarray | slice) -> "PipelineContext":
        """Block view of the context (blocked residual, streaming cosim).

        Parameters
        ----------
        indices:
            1-D array of element ids forming one block token. The ids
            need not be contiguous: a compute unit's shard of the mesh
            is whatever :func:`repro.mesh.partition` handed it. A
            contiguous run may be given as a ``slice``, which views the
            connectivity and metric terms instead of copying them.

        Returns
        -------
        PipelineContext
            Context whose connectivity and metric terms cover exactly
            the block's elements (shape ``(B, ...)`` on the element
            axis); ``num_nodes`` stays global so STORE still assembles
            into the full node space.
        """
        if not isinstance(indices, slice):
            indices = np.asarray(indices, dtype=np.int64)
        return replace(
            self,
            connectivity=self.connectivity[indices],
            geom=self.geom.block_view(indices),
        )


# ---------------------------------------------------------------------------
# Pointwise physics shared by the flux kernels
# ---------------------------------------------------------------------------


def _primitive_fields(
    state_elem: np.ndarray, gas: GasProperties
) -> tuple[np.ndarray, np.ndarray]:
    """``(u, v, w, T)`` in one ``(4, E, Q)`` buffer, and the pressure.

    The buffer is the single input of the gradient call. The kinetic
    energy ``0.5 * sum_i m_i u_i`` is summed in component order, exactly
    as ``np.sum`` over the leading axis would.
    """
    rho = state_elem[0]
    momentum = state_elem[1:4]
    fields = np.empty((4,) + rho.shape, dtype=state_elem.dtype)
    velocity = fields[:3]
    np.divide(momentum, rho, out=velocity)
    internal = momentum[0] * velocity[0]
    term = np.empty_like(internal)
    for i in (1, 2):
        np.multiply(momentum[i], velocity[i], out=term)
        internal += term
    internal *= 0.5
    np.subtract(state_elem[4], internal, out=internal)
    pressure = (gas.gamma - 1.0) * internal
    np.multiply(rho, gas.cv, out=term)
    np.divide(internal, term, out=fields[3])
    return fields, pressure


def element_primitives(
    state_elem: np.ndarray, gas: GasProperties
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Primitive fields per element node from gathered conservatives.

    ``state_elem`` is ``(5, E, Q)``; returns
    ``(rho, velocity(3, E, Q), pressure, temperature, total_energy)``.
    This is the node-level LOAD stage of the paper's Fig. 1.
    """
    fields, pressure = _primitive_fields(state_elem, gas)
    return state_elem[0], fields[:3], pressure, fields[3], state_elem[4]


def pad_to_conserved(values: np.ndarray, field_start: int) -> np.ndarray:
    """Place a partial-field array into the full conserved set.

    ``values`` has fields along axis 0; rows outside
    ``[field_start, field_start + F)`` are exact zeros. Full-set inputs
    at offset 0 pass through unchanged.
    """
    if field_start == 0 and values.shape[0] == NUM_CONSERVED:
        return values
    out = np.zeros((NUM_CONSERVED,) + values.shape[1:], dtype=values.dtype)
    out[field_start : field_start + values.shape[0]] = values
    return out


# ---------------------------------------------------------------------------
# The registered kernels
# ---------------------------------------------------------------------------


@register_pipeline_kernel("gather")
def _gather(ctx: PipelineContext, stage: Stage, state: np.ndarray):
    """LOAD-element: ``(5, N)`` global state to ``(5, E, Q)`` local."""
    return (ctx.backend.gather(state, ctx.connectivity),)


@register_pipeline_kernel("convective_flux")
def _convective_flux(ctx: PipelineContext, stage: Stage, state_elem: np.ndarray):
    """Euler fluxes per node, stacked ``(5, E, Q, 3)``."""
    rho, velocity, pressure, _temperature, total_energy = element_primitives(
        state_elem, ctx.gas
    )
    return (convective_fluxes(rho, velocity, pressure, total_energy).stacked(),)


@register_pipeline_kernel("viscous_flux")
def _viscous_flux(ctx: PipelineContext, stage: Stage, state_elem: np.ndarray):
    """Viscous/heat fluxes per node, stacked ``(4, E, Q, 3)``.

    The mass equation has no viscous flux, so only the momentum and
    energy rows are produced (``field_start=1`` downstream).
    """
    fields, _pressure = _primitive_fields(state_elem, ctx.gas)
    grads = ctx.backend.physical_gradient_many(fields, ctx.geom, ctx.ref)
    grad_u = np.moveaxis(grads[:3], 0, 2)  # (E, Q, i, j) = du_i/dx_j
    fluxes = viscous_fluxes(fields[:3], grad_u, grads[3], ctx.gas)
    return (
        np.stack(
            [fluxes.momentum[..., i, :] for i in range(3)] + [fluxes.energy]
        ),
    )


@register_pipeline_kernel("combined_flux")
def single_pass_net_flux(
    ctx: PipelineContext, stage: Stage, state_elem: np.ndarray
):
    """Net flux ``F_c - F_v`` per node, stacked ``(5, E, Q, 3)``.

    The accelerator's merged diffusion+convection COMPUTE module as one
    pass from the conservatives to the payload: ``(u, v, w, T)`` feed a
    single gradient call, then each of the 15 flux components is formed
    on ``(E, Q)`` planes directly in its slot of a freshly allocated
    payload. The payload's memory is direction-major ``(5, 3, E, Q)``
    behind the ``(5, E, Q, 3)`` view it returns, so every plane is
    contiguous. The stress ``tau_ij = mu (g_ij + g_ji) + lambda delta_ij
    div u`` (``lambda = -2 mu / 3``) is built in the momentum rows,
    contracted with ``u`` into the energy row, and then replaced by the
    net momentum flux.

    Operations and their association are those of
    ``combined_rhs_fluxes(convective_fluxes(...), viscous_fluxes(...))``,
    the reference formulae in :mod:`repro.physics.fluxes`, without their
    intermediate arrays.
    """
    gas = ctx.gas
    mu = gas.viscosity
    rho = state_elem[0]
    fields, pressure = _primitive_fields(state_elem, gas)
    velocity = fields[:3]
    grads = ctx.backend.physical_gradient_many(fields, ctx.geom, ctx.ref)
    grad = np.moveaxis(grads, -1, 1)  # grad[f, j] = d fields[f] / dx_j
    # Direction-major memory: flux[f, j] is one contiguous (E, Q) plane.
    flux = np.empty((NUM_CONSERVED, 3) + rho.shape, dtype=state_elem.dtype)

    tau = flux[1:4]
    np.add(grad[:3], np.swapaxes(grad[:3], 0, 1), out=tau)
    tau *= mu
    # One scratch plane: (2/3) mu div u here, E + p below.
    scratch = grad[0, 0] + grad[1, 1]
    scratch += grad[2, 2]
    scratch *= (2.0 / 3.0) * mu
    for i in range(3):
        tau[i, i] -= scratch

    # energy: (E + p) u_j - (sum_i tau_ji u_i + kappa dT/dx_j)
    viscous = flux[4]
    np.multiply(tau[:, 0], velocity[0], out=viscous)
    term = np.empty_like(velocity)
    for i in (1, 2):
        np.multiply(tau[:, i], velocity[i], out=term)
        viscous += term
    np.multiply(gas.thermal_conductivity, grad[3], out=term)
    viscous += term
    np.add(pressure, state_elem[4], out=scratch)
    np.multiply(scratch, velocity, out=term)
    np.subtract(term, viscous, out=viscous)

    # mass rho u_j; momentum i: (rho u_i) u_j + p delta_ij - tau_ij
    np.multiply(rho, velocity, out=flux[0])
    for i in range(3):
        np.multiply(flux[0, i], velocity, out=term)
        term[i] += pressure
        np.subtract(term, tau[i], out=tau[i])
    return (np.moveaxis(flux, 1, -1),)


@register_pipeline_kernel("weak_divergence")
def _weak_divergence(ctx: PipelineContext, stage: Stage, flux: np.ndarray):
    """Weak-divergence residuals of a stacked flux, ``(F, E, Q)``.

    ``sign`` scales the result (-1 for fluxes written on the left-hand
    side, ``dq/dt + div F = 0``; +1 for the diffusion contribution that
    enters with a plus). The backend hands over a fresh array, so the
    scaling happens in place.
    """
    sign = float(stage.param("sign", -1.0))
    div = ctx.backend.weak_divergence_many(flux, ctx.geom, ctx.ref)
    if sign != 1.0:
        np.multiply(div, sign, out=div)
    return (div,)


@register_pipeline_kernel("scatter_add")
def _scatter_add(ctx: PipelineContext, stage: Stage, element_res: np.ndarray):
    """STORE-element-contribution: assemble ``(F, E, Q)`` to ``(5, N)``.

    ``field_start`` places partial-field residuals (the 4 viscous rows)
    into the conserved set; absent rows assemble to exact zeros.
    """
    start = int(stage.param("field_start", 0))
    assembled = ctx.backend.scatter_add_many(
        element_res, ctx.connectivity, ctx.num_nodes
    )
    return (pad_to_conserved(assembled, start),)
