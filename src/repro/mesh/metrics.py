"""Element geometry metrics: volumes, spacings, quality report.

The CFL time-step controller needs the minimum GLL spacing; the workload
model needs element volumes; and mesh validation wants a compact quality
summary. All of it lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class MeshQualityReport:
    """Summary statistics of a mesh used by validation and logging."""

    num_elements: int
    num_nodes: int
    total_volume: float
    min_volume: float
    max_volume: float
    min_spacing: float
    aspect_ratio_max: float

    def is_uniform(self, rtol: float = 1e-10) -> bool:
        """True when all elements have (numerically) identical volume."""
        if self.max_volume == 0:
            return False
        return (self.max_volume - self.min_volume) <= rtol * self.max_volume


def _element_aspect_ratios(mesh: HexMesh) -> np.ndarray:
    corners = mesh.corner_coords
    c0 = corners[:, 0]
    ex = np.linalg.norm(corners[:, 1] - c0, axis=1)
    ey = np.linalg.norm(corners[:, 3] - c0, axis=1)
    ez = np.linalg.norm(corners[:, 4] - c0, axis=1)
    edges = np.stack([ex, ey, ez], axis=1)
    if (edges <= 0).any():
        raise MeshError("zero-length element edge")
    return edges.max(axis=1) / edges.min(axis=1)


def mesh_quality_report(mesh: HexMesh) -> MeshQualityReport:
    """Compute the full quality report for a mesh."""
    volumes = element_volumes(mesh)
    spacing = element_min_spacing(mesh)
    aspect = _element_aspect_ratios(mesh)
    return MeshQualityReport(
        num_elements=mesh.num_elements,
        num_nodes=mesh.num_nodes,
        total_volume=float(volumes.sum()),
        min_volume=float(volumes.min()),
        max_volume=float(volumes.max()),
        min_spacing=float(spacing.min()),
        aspect_ratio_max=float(aspect.max()),
    )
