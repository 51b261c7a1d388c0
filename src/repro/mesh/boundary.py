"""Boundary tagging and periodic image maps.

The TGV case is triply periodic, which the mesh generator encodes by
*fusing* periodic images into one node — so the solver never sees a
boundary at all. This module provides the complementary machinery:

- :func:`tag_box_boundaries` labels the wall nodes of a non-periodic box
  (used by the wall-bounded example and the boundary-condition tests);
- :func:`periodic_image_map` reconstructs, for a non-periodic box, which
  node pairs a periodic fusing *would* identify — which is exactly the
  consistency check for the generator's fused meshes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import MeshError
from .hexmesh import HexMesh


class BoundaryTag(enum.IntFlag):
    """Bitmask of box faces a node lies on."""

    NONE = 0
    X_MIN = 1
    X_MAX = 2
    Y_MIN = 4
    Y_MAX = 8
    Z_MIN = 16
    Z_MAX = 32


_FACE_AXES = {
    BoundaryTag.X_MIN: (0, 0),
    BoundaryTag.X_MAX: (0, 1),
    BoundaryTag.Y_MIN: (1, 0),
    BoundaryTag.Y_MAX: (1, 1),
    BoundaryTag.Z_MIN: (2, 0),
    BoundaryTag.Z_MAX: (2, 1),
}


def tag_box_boundaries(mesh: HexMesh, atol: float = 1e-10) -> np.ndarray:
    """Per-node boundary bitmask of a (partially) wall-bounded box mesh.

    Returns an ``(N,)`` integer array of :class:`BoundaryTag` flags.
    Faces of periodic axes carry no tags (they are not boundaries);
    fully periodic meshes are rejected because they have none at all.
    """
    if mesh.periodic:
        raise MeshError("periodic meshes have no boundary nodes to tag")
    tags = np.zeros(mesh.num_nodes, dtype=np.int64)
    for tag, (axis, side) in _FACE_AXES.items():
        if mesh.periodic_axes[axis]:
            continue
        bound = mesh.domain[axis][side]
        on_face = np.abs(mesh.coords[:, axis] - bound) <= atol
        tags[on_face] |= int(tag)
    return tags


@dataclass(frozen=True)
class PeriodicImagePair:
    """A (primary, image) node pair identified by periodicity."""

    primary: int
    image: int
    axis: int


def periodic_image_map(mesh: HexMesh, atol: float = 1e-9) -> list[PeriodicImagePair]:
    """Node pairs a periodic wrap would identify, for a non-periodic box.

    For each axis, matches every node on the max face to the node on the
    min face with the same transverse coordinates. Used to verify that the
    periodic generator fused exactly these pairs.
    """
    if mesh.periodic:
        raise MeshError("image map is defined for non-periodic meshes")
    pairs: list[PeriodicImagePair] = []
    coords = mesh.coords
    for axis in range(3):
        lo, hi = mesh.domain[axis]
        on_min = np.nonzero(np.abs(coords[:, axis] - lo) <= atol)[0]
        on_max = np.nonzero(np.abs(coords[:, axis] - hi) <= atol)[0]
        other = [a for a in range(3) if a != axis]
        # Index min-face nodes by rounded transverse coordinates.
        def key_of(node: int) -> tuple[int, int]:
            return (
                int(round(coords[node, other[0]] / atol / 1000.0)),
                int(round(coords[node, other[1]] / atol / 1000.0)),
            )

        min_index = {key_of(int(n)): int(n) for n in on_min}
        for node in on_max:
            k = key_of(int(node))
            if k not in min_index:
                raise MeshError(
                    f"no periodic partner for node {int(node)} along axis {axis}"
                )
            pairs.append(
                PeriodicImagePair(primary=min_index[k], image=int(node), axis=axis)
            )
    return pairs
