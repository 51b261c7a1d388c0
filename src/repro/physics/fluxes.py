"""Convective and viscous flux vectors of the compressible NS equations.

The paper splits the right-hand side into a **Convection** term
``C(x) = div f(x)`` and a **Diffusion** term ``D(x) = -div(lambda grad x)``
(Section II-B); the two are computed by separate COMPUTE stages that the
accelerator merges into one module. This module provides the *pointwise*
fluxes whose weak divergences those stages accumulate:

Convective (Euler) fluxes
    mass:      ``F = rho u``
    momentum:  ``F_ij = rho u_i u_j + p delta_ij``
    energy:    ``F = (E + p) u``

Viscous (diffusion) fluxes
    momentum:  ``F = tau``
    energy:    ``F = tau . u + kappa grad T``

All functions are shape-polymorphic over the node axis: inputs carry
shape ``(..., N)`` per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PhysicsError
from .gas import GasProperties
from .viscous import stress_tensor


@dataclass
class FluxSet:
    """Physical flux vectors for the five conserved equations.

    Attributes
    ----------
    mass:
        ``(..., 3)`` mass flux.
    momentum:
        ``(..., 3, 3)``; ``momentum[..., i, j]`` is the j-direction flux of
        the i-momentum.
    energy:
        ``(..., 3)`` energy flux.
    """

    mass: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray

    def stacked(self) -> np.ndarray:
        """Pack into ``(5, ..., 3)`` ordered (rho, mx, my, mz, E)."""
        parts = [self.mass[None]] + [
            self.momentum[..., i, :][None] for i in range(3)
        ]
        parts.append(self.energy[None])
        return np.concatenate(parts, axis=0)


def convective_fluxes(
    rho: np.ndarray,
    velocity: np.ndarray,
    pressure: np.ndarray,
    total_energy: np.ndarray,
) -> FluxSet:
    """Euler fluxes of the conserved variables.

    ``velocity`` has shape ``(3, ...)`` (component-major, like
    :meth:`repro.physics.FlowState.velocity`); the per-node flux arrays put
    the direction axis *last* so they feed
    :func:`repro.fem.operators.weak_divergence` directly.
    """
    rho = np.asarray(rho)
    velocity = np.asarray(velocity)
    pressure = np.asarray(pressure)
    total_energy = np.asarray(total_energy)
    if velocity.shape[0] != 3:
        raise PhysicsError(f"velocity must be (3, ...), got {velocity.shape}")

    u_last = np.moveaxis(velocity, 0, -1)  # (..., 3)
    idx = np.arange(3)
    mass = rho[..., None] * u_last
    # momentum[..., i, j] = rho u_i u_j + p delta_ij
    momentum = rho[..., None, None] * u_last[..., :, None] * u_last[..., None, :]
    momentum[..., idx, idx] += pressure[..., None]
    energy = (total_energy + pressure)[..., None] * u_last
    return FluxSet(mass=mass, momentum=momentum, energy=energy)


def viscous_fluxes(
    velocity: np.ndarray,
    grad_u: np.ndarray,
    grad_t: np.ndarray,
    gas: GasProperties,
) -> FluxSet:
    """Viscous + heat-conduction fluxes.

    Parameters
    ----------
    velocity:
        ``(3, ...)`` velocity.
    grad_u:
        ``(..., 3, 3)`` velocity gradient, ``du_i/dx_j``.
    grad_t:
        ``(..., 3)`` temperature gradient.

    Notes
    -----
    The mass equation has no viscous flux (zeros returned); momentum
    diffuses with ``tau`` and energy with ``tau . u + kappa grad T``.
    """
    velocity = np.asarray(velocity)
    grad_u = np.asarray(grad_u)
    grad_t = np.asarray(grad_t)
    if velocity.shape[0] != 3:
        raise PhysicsError(f"velocity must be (3, ...), got {velocity.shape}")
    tau = stress_tensor(grad_u, gas.viscosity)
    u_last = np.moveaxis(velocity, 0, -1)
    energy = (
        np.einsum("...ij,...j->...i", tau, u_last)
        + gas.thermal_conductivity * grad_t
    )
    return FluxSet(mass=np.zeros_like(u_last), momentum=tau, energy=energy)


def combined_rhs_fluxes(convective: FluxSet, viscous: FluxSet) -> FluxSet:
    """Net flux whose (weak) divergence is the conservative-form RHS.

    Writing each equation as ``dq/dt + div(F_c - F_v) = 0``, the net flux
    is ``F_c - F_v``; the solver takes one weak divergence of this
    combination per conserved field.
    """
    return FluxSet(
        mass=convective.mass - viscous.mass,
        momentum=convective.momentum - viscous.momentum,
        energy=convective.energy - viscous.energy,
    )
