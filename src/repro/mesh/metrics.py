"""Element geometry metrics: volumes and spacings.

The CFL time-step controller needs the minimum GLL spacing, and the
mesh tests check the generators against the element volumes.
"""

from __future__ import annotations

import numpy as np

from ..errors import MeshError
from ..fem.geometry import compute_geometry
from ..fem.reference import reference_hex
from .hexmesh import HexMesh


def element_volumes(mesh: HexMesh) -> np.ndarray:
    """Volume of each element via GLL quadrature of 1."""
    ref = reference_hex(mesh.polynomial_order)
    geom = compute_geometry(mesh.corner_coords, ref)
    scale = geom.quadrature_scale(ref)  # (E, Q) or broadcastable
    if scale.shape[1] == 1:
        return scale[:, 0] * ref.num_nodes * 0 + np.abs(
            geom.det_jacobian[:, 0]
        ) * np.sum(ref.weights_flat())
    return scale.sum(axis=1)


def element_min_spacing(mesh: HexMesh) -> np.ndarray:
    """Minimum distance between adjacent GLL nodes inside each element.

    This is the length scale entering the advective CFL condition. GLL
    nodes cluster towards element boundaries, so the minimum spacing is
    smaller than ``h / p``.
    """
    n1 = mesh.nodes_per_direction
    # One contiguous (E, n1, n1, n1) plane per coordinate component.
    planes = np.ascontiguousarray(
        np.moveaxis(mesh.element_node_coords(), -1, 0)
    ).reshape(3, -1, n1, n1, n1)
    squared = []
    for axis in (3, 2, 1):  # x-, y-, z-neighbours
        # Squares summed x, y, z: bitwise the sum np.linalg.norm takes.
        sx, sy, sz = (np.square(np.diff(p, axis=axis)) for p in planes)
        total = (sx + sy + sz).reshape(mesh.num_elements, -1)
        squared.append(total.min(axis=1))
    # sqrt is monotone, so it runs once, on the per-element minimum.
    per_elem = np.sqrt(np.min(squared, axis=0))
    if (per_elem <= 0).any():
        raise MeshError("coincident GLL nodes detected inside an element")
    return per_elem
