"""Local node numbering inside a hexahedral spectral element.

A hex element of polynomial order ``p`` carries ``(p + 1)**3`` GLL nodes.
We use lexicographic ordering with **x fastest, z slowest**:

``local = (iz * n1 + iy) * n1 + ix`` with ``n1 = p + 1``.

All tensor-product operators in :mod:`repro.fem` rely on this convention,
so it is defined exactly once, here.
"""

from __future__ import annotations

import numpy as np

from ..errors import MeshError


def nodes_per_direction(polynomial_order: int) -> int:
    """Number of GLL nodes per direction for the given order."""
    if polynomial_order < 1:
        raise MeshError(f"polynomial order must be >= 1, got {polynomial_order}")
    return polynomial_order + 1


def local_node_index(ix: int, iy: int, iz: int, n1: int) -> int:
    """Flatten a local ``(ix, iy, iz)`` triplet to the lexicographic index."""
    if not (0 <= ix < n1 and 0 <= iy < n1 and 0 <= iz < n1):
        raise MeshError(f"local triplet ({ix}, {iy}, {iz}) out of range for n1={n1}")
    return (iz * n1 + iy) * n1 + ix


def local_node_triplet(local: int, n1: int) -> tuple[int, int, int]:
    """Invert :func:`local_node_index`."""
    if not (0 <= local < n1**3):
        raise MeshError(f"local index {local} out of range for n1={n1}")
    ix = local % n1
    iy = (local // n1) % n1
    iz = local // (n1 * n1)
    return ix, iy, iz
