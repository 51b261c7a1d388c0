"""Integral flow diagnostics used for solver validation.

The classical TGV verification quantities: volume-averaged kinetic
energy, enstrophy and total mass.
"""

from __future__ import annotations

import numpy as np

from ..errors import PhysicsError
from .state import FlowState


def volume_average(field: np.ndarray, mass_weights: np.ndarray) -> float:
    """Mass-weighted volume average ``(sum m_i f_i) / (sum m_i)``.

    ``mass_weights`` is the lumped-mass diagonal (node volumes), so the
    sum is the GLL integral of ``f`` over the domain.
    """
    field = np.asarray(field)
    mass_weights = np.asarray(mass_weights)
    if field.shape != mass_weights.shape:
        raise PhysicsError(
            f"field {field.shape} and weights {mass_weights.shape} differ"
        )
    total = mass_weights.sum()
    if total <= 0:
        raise PhysicsError("non-positive total volume")
    return float(np.dot(field, mass_weights) / total)


def total_mass(state: FlowState, mass_weights: np.ndarray) -> float:
    """Total fluid mass ``integral rho dV`` — exactly conserved on a
    periodic mesh by the conservative discretization (tested invariant)."""
    return float(np.dot(state.rho, np.asarray(mass_weights)))


def kinetic_energy(state: FlowState, mass_weights: np.ndarray) -> float:
    """Volume-averaged kinetic energy ``(1/V) integral rho |u|^2 / 2 dV``."""
    return volume_average(state.kinetic_energy_density(), mass_weights)


def enstrophy(
    vorticity_nodes: np.ndarray, rho: np.ndarray, mass_weights: np.ndarray
) -> float:
    """Volume-averaged enstrophy ``(1/V) integral rho |omega|^2 / 2 dV``.

    ``vorticity_nodes`` has shape ``(N, 3)``.
    """
    vorticity_nodes = np.asarray(vorticity_nodes)
    if vorticity_nodes.ndim != 2 or vorticity_nodes.shape[1] != 3:
        raise PhysicsError(
            f"vorticity must be (N, 3), got {vorticity_nodes.shape}"
        )
    omega_sq = 0.5 * np.asarray(rho) * np.sum(vorticity_nodes**2, axis=1)
    return volume_average(omega_sq, mass_weights)
