"""Newtonian viscous stress tensor (the ``tau`` of paper Fig. 1).

``tau = mu (grad u + grad u^T) - (2/3) mu (div u) I`` — the compressible
Newtonian stress with Stokes' hypothesis. The COMPUTE-tau node stage of
the accelerator evaluates exactly these nine components per node.
"""

from __future__ import annotations

import numpy as np

from ..errors import PhysicsError


def stress_tensor(grad_u: np.ndarray, viscosity: float) -> np.ndarray:
    """Viscous stress from the velocity gradient.

    Parameters
    ----------
    grad_u:
        ``(..., 3, 3)`` with ``grad_u[..., i, j] = du_i / dx_j``.
    viscosity:
        Dynamic viscosity ``mu``.

    Returns
    -------
    ``(..., 3, 3)`` symmetric stress tensor.
    """
    grad_u = np.asarray(grad_u)
    if grad_u.shape[-2:] != (3, 3):
        raise PhysicsError(f"grad_u must end in (3, 3), got {grad_u.shape}")
    div_u = np.trace(grad_u, axis1=-2, axis2=-1)
    tau = viscosity * (grad_u + np.swapaxes(grad_u, -1, -2))
    idx = np.arange(3)
    tau[..., idx, idx] -= (2.0 / 3.0) * viscosity * div_u[..., None]
    return tau


def vorticity(grad_u: np.ndarray) -> np.ndarray:
    """Vorticity vector ``omega = curl u`` from the velocity gradient.

    ``grad_u[..., i, j] = du_i/dx_j``; returns ``(..., 3)``.
    """
    grad_u = np.asarray(grad_u)
    if grad_u.shape[-2:] != (3, 3):
        raise PhysicsError(f"grad_u must end in (3, 3), got {grad_u.shape}")
    wx = grad_u[..., 2, 1] - grad_u[..., 1, 2]
    wy = grad_u[..., 0, 2] - grad_u[..., 2, 0]
    wz = grad_u[..., 1, 0] - grad_u[..., 0, 1]
    return np.stack([wx, wy, wz], axis=-1)
