"""Isoparametric geometry: trilinear mapping, Jacobians, metric terms.

Every element is mapped from the reference cube ``[-1, 1]^3`` by the
trilinear interpolant of its 8 corners (VTK ordering). This module
evaluates, at every GLL node of every element:

- the Jacobian ``J = dx/dxi`` (3x3),
- its determinant ``det J`` (the volume scale of the GLL quadrature),
- its inverse ``dxi/dx`` (the metric applied to reference gradients).

Axis-aligned or parallelepiped elements have a *constant* Jacobian; the
module detects this and stores one Jacobian per element instead of one per
node, which numpy broadcasting then treats identically to the general
case. This is both a large memory saving at paper-scale meshes and the
exact analogue of the "precomputed metric terms" arrays the accelerator
streams from DDR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FEMError
from .reference import ReferenceHex

_AFFINE_ATOL = 1e-12

#: Reference coordinates of the 8 trilinear corners, VTK order.
_CORNER_SIGNS = np.array(
    [
        (-1.0, -1.0, -1.0),
        (+1.0, -1.0, -1.0),
        (+1.0, +1.0, -1.0),
        (-1.0, +1.0, -1.0),
        (-1.0, -1.0, +1.0),
        (+1.0, -1.0, +1.0),
        (+1.0, +1.0, +1.0),
        (-1.0, +1.0, +1.0),
    ]
)


def trilinear_shape(ref_points: np.ndarray) -> np.ndarray:
    """Trilinear corner shape functions at reference points.

    ``ref_points`` has shape ``(Q, 3)``; the result ``(Q, 8)`` with
    ``result[q, c] = N_c(xi_q)``.
    """
    ref_points = np.asarray(ref_points, dtype=np.float64)
    s = _CORNER_SIGNS
    return (
        (1.0 + ref_points[:, None, 0] * s[None, :, 0])
        * (1.0 + ref_points[:, None, 1] * s[None, :, 1])
        * (1.0 + ref_points[:, None, 2] * s[None, :, 2])
        / 8.0
    )


def trilinear_shape_gradients(ref_points: np.ndarray) -> np.ndarray:
    """Reference-space gradients of the corner shape functions.

    Returns ``(Q, 8, 3)`` with ``result[q, c, d] = dN_c/dxi_d (xi_q)``.
    """
    ref_points = np.asarray(ref_points, dtype=np.float64)
    s = _CORNER_SIGNS
    fx = 1.0 + ref_points[:, None, 0] * s[None, :, 0]
    fy = 1.0 + ref_points[:, None, 1] * s[None, :, 1]
    fz = 1.0 + ref_points[:, None, 2] * s[None, :, 2]
    grad = np.empty(ref_points.shape[:1] + (8, 3))
    grad[:, :, 0] = s[None, :, 0] * fy * fz / 8.0
    grad[:, :, 1] = s[None, :, 1] * fx * fz / 8.0
    grad[:, :, 2] = s[None, :, 2] * fx * fy / 8.0
    return grad


def _invert_3x3(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized analytic inverse and determinant of ``(..., 3, 3)``."""
    a = mat[..., 0, 0]
    b = mat[..., 0, 1]
    c = mat[..., 0, 2]
    d = mat[..., 1, 0]
    e = mat[..., 1, 1]
    f = mat[..., 1, 2]
    g = mat[..., 2, 0]
    h = mat[..., 2, 1]
    i = mat[..., 2, 2]
    co_a = e * i - f * h
    co_b = c * h - b * i
    co_c = b * f - c * e
    co_d = f * g - d * i
    co_e = a * i - c * g
    co_f = c * d - a * f
    co_g = d * h - e * g
    co_h = b * g - a * h
    co_i = a * e - b * d
    det = a * co_a + b * co_d + c * co_g
    inv = np.empty_like(mat)
    inv[..., 0, 0] = co_a
    inv[..., 0, 1] = co_b
    inv[..., 0, 2] = co_c
    inv[..., 1, 0] = co_d
    inv[..., 1, 1] = co_e
    inv[..., 1, 2] = co_f
    inv[..., 2, 0] = co_g
    inv[..., 2, 1] = co_h
    inv[..., 2, 2] = co_i
    safe_det = np.where(det == 0.0, 1.0, det)
    inv /= safe_det[..., None, None]
    return inv, det


@dataclass
class ElementGeometry:
    """Per-element metric terms at the GLL nodes.

    ``jacobian``, ``inverse_jacobian`` have shape ``(E, Q, 3, 3)`` and
    ``det_jacobian`` has shape ``(E, Q)``, where ``Q`` is either the number
    of GLL nodes per element or 1 for affine elements (broadcastable).
    """

    jacobian: np.ndarray
    inverse_jacobian: np.ndarray
    det_jacobian: np.ndarray
    is_affine: bool
    _quad_scale: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_elements(self) -> int:
        return int(self.jacobian.shape[0])

    def quadrature_scale(self, ref: ReferenceHex) -> np.ndarray:
        """``w_q * |det J|`` per element node, shape ``(E, num_nodes)``.

        This is the diagonal of the (lumped) element mass matrix and the
        quantity the accelerator stores per node for the STORE stage.
        """
        if self._quad_scale is None:
            w = ref.weights_flat()[None, :]
            self._quad_scale = w * np.abs(self.det_jacobian)
        return self._quad_scale

    def block_view(self, indices: np.ndarray | slice) -> "ElementGeometry":
        """Metric terms of an element block, shape ``(B, ...)``.

        ``indices`` is a 1-D array of element ids (need not be
        contiguous — a CU's shard may be any subset). Fancy indexing
        copies the block's metric rows, which is what the accelerator's
        batched LOAD does anyway: the block working set is staged into
        on-chip memory before COMPUTE consumes it. A ``slice`` gives
        views instead, laid out exactly like the whole-mesh arrays.
        """
        if not isinstance(indices, slice):
            indices = np.asarray(indices, dtype=np.int64)
        cached = self._quad_scale
        return ElementGeometry(
            jacobian=self.jacobian[indices],
            inverse_jacobian=self.inverse_jacobian[indices],
            det_jacobian=self.det_jacobian[indices],
            is_affine=self.is_affine,
            _quad_scale=None if cached is None else cached[indices],
        )


def _corners_are_parallelepipeds(corners: np.ndarray) -> bool:
    """True when every element is a parallelepiped (affine mapping)."""
    c0 = corners[:, 0]
    ex = corners[:, 1] - c0
    ey = corners[:, 3] - c0
    ez = corners[:, 4] - c0
    checks = (
        np.abs(corners[:, 2] - (c0 + ex + ey)).max(initial=0.0),
        np.abs(corners[:, 5] - (c0 + ex + ez)).max(initial=0.0),
        np.abs(corners[:, 7] - (c0 + ey + ez)).max(initial=0.0),
        np.abs(corners[:, 6] - (c0 + ex + ey + ez)).max(initial=0.0),
    )
    scale = max(np.abs(corners).max(initial=1.0), 1.0)
    return max(checks) <= _AFFINE_ATOL * scale * 8.0


def compute_geometry(corner_coords: np.ndarray, ref: ReferenceHex) -> ElementGeometry:
    """Metric terms for all elements described by their corner coordinates.

    Parameters
    ----------
    corner_coords:
        ``(E, 8, 3)`` physical corners in VTK order (see
        :meth:`repro.mesh.HexMesh.corner_coords`).
    ref:
        The reference hexahedron whose GLL nodes the metrics are taken at.
    """
    corners = np.asarray(corner_coords, dtype=np.float64)
    if corners.ndim != 3 or corners.shape[1:] != (8, 3):
        raise FEMError(f"corner_coords must be (E, 8, 3), got {corners.shape}")

    if _corners_are_parallelepipeds(corners):
        c0 = corners[:, 0]
        # Columns of J are the half-edge vectors: x(xi) = center + 0.5*E*xi.
        jac = np.stack(
            [
                (corners[:, 1] - c0) * 0.5,
                (corners[:, 3] - c0) * 0.5,
                (corners[:, 4] - c0) * 0.5,
            ],
            axis=2,
        )[:, None, :, :]  # (E, 1, 3, 3)
        inv, det = _invert_3x3(jac)
        if np.any(det == 0.0):
            raise FEMError("degenerate (zero-volume) element encountered")
        return ElementGeometry(
            jacobian=jac,
            inverse_jacobian=inv,
            det_jacobian=det,
            is_affine=True,
        )

    ref_nodes = ref.nodes_3d()  # (Q, 3)
    dshape = trilinear_shape_gradients(ref_nodes)  # (Q, 8, 3)
    # J[e, q, d_phys, d_ref] = sum_c corners[e, c, d_phys] * dshape[q, c, d_ref]
    jac = np.einsum("ecp,qcr->eqpr", corners, dshape, optimize=True)
    inv, det = _invert_3x3(jac)
    if np.any(det == 0.0) or np.any(~np.isfinite(det)):
        raise FEMError("degenerate or inverted element encountered")
    return ElementGeometry(
        jacobian=jac,
        inverse_jacobian=inv,
        det_jacobian=det,
        is_affine=False,
    )
