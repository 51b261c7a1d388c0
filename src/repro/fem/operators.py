"""Element-level FEM operators via tensor-product sum factorization.

These are the kernels that Fig. 1 of the paper depicts: gradient
computation at the nodes of an element and accumulation of weak-form
(integrated-by-parts) divergence residuals, both for the Convection and
the Diffusion term. Everything is vectorized over elements; fields carry
shape ``(E, Q)`` with ``Q = (p + 1)**3`` nodes in lexicographic order
(x fastest), matching :mod:`repro.mesh.node_ordering`.

Conventions
-----------
- ``jacobian[e, q, p, r] = dx_p / dxi_r``;
- ``inverse_jacobian[e, q, r, p] = dxi_r / dx_p``;
- reference gradients stack as ``(E, 3, Q)`` with axis 1 = (xi, eta, zeta);
- physical gradients stack as ``(E, Q, 3)`` with axis 2 = (x, y, z).
"""

from __future__ import annotations

import numpy as np

from ..errors import FEMError
from .geometry import ElementGeometry
from .reference import ReferenceHex

def _as_grid(field: np.ndarray, n1: int) -> np.ndarray:
    """View ``(E, Q)`` as ``(E, n1, n1, n1)`` indexed ``[e, iz, iy, ix]``."""
    e = field.shape[0]
    return field.reshape(e, n1, n1, n1)


def reference_gradient(field: np.ndarray, ref: ReferenceHex) -> np.ndarray:
    """Gradient in reference coordinates of a nodal field.

    Parameters
    ----------
    field:
        ``(E, Q)`` nodal values.

    Returns
    -------
    ``(E, 3, Q)`` with axis 1 ordering ``(d/dxi, d/deta, d/dzeta)``.
    """
    n1 = ref.n1
    if field.ndim != 2 or field.shape[1] != n1**3:
        raise FEMError(f"field must be (E, {n1 ** 3}), got {field.shape}")
    # Cast the (tabulated, float64) differentiation matrix to the field
    # dtype: float32 streams must differentiate in float32, both for
    # device faithfulness and to keep every kernel dtype-preserving.
    d = ref.diff.astype(field.dtype, copy=False)
    grid = _as_grid(field, n1)  # (E, z, y, x)
    out = np.empty((field.shape[0], 3) + grid.shape[1:], dtype=field.dtype)
    # d/dxi acts on the x (last) axis: out[e,z,y,a] = sum_b D[a,b] f[e,z,y,b]
    out[:, 0] = np.einsum("ab,ezyb->ezya", d, grid, optimize=True)
    out[:, 1] = np.einsum("ab,ezby->ezay", d, grid, optimize=True)
    out[:, 2] = np.einsum("ab,ebzy->eazy", d, grid, optimize=True)
    return out.reshape(field.shape[0], 3, n1**3)


def physical_gradient(
    field: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
) -> np.ndarray:
    """Gradient in physical coordinates of a nodal field.

    Returns ``(E, Q, 3)``: ``out[e, q, p] = df/dx_p`` at node ``q``.
    """
    ref_grad = reference_gradient(field, ref)  # (E, 3, Q)
    inv = geom.inverse_jacobian.astype(ref_grad.dtype, copy=False)
    if inv.shape[1] == 1:  # affine: metric constant within the element
        return np.einsum("erq,erp->eqp", ref_grad, inv[:, 0], optimize=True)
    return np.einsum("erq,eqrp->eqp", ref_grad, inv, optimize=True)


def physical_gradient_many(
    fields: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
) -> np.ndarray:
    """Physical gradients of several fields at once.

    ``fields`` has shape ``(F, E, Q)``; the result ``(F, E, Q, 3)``. This is
    the batched form used for the velocity components and temperature in
    one pass (COMPUTE-Gradients in Fig. 1).
    """
    fields = np.asarray(fields)
    if fields.ndim != 3:
        raise FEMError(f"fields must be (F, E, Q), got {fields.shape}")
    out = np.empty(fields.shape + (3,), dtype=fields.dtype)
    for f_idx in range(fields.shape[0]):
        out[f_idx] = physical_gradient(fields[f_idx], geom, ref)
    return out


def weak_divergence(
    flux: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
) -> np.ndarray:
    """Weak-form divergence residual of a physical flux field.

    Computes, per element and test function ``N_i``,

    ``R_i = -sum_q w_q |det J|_q  grad(N_i)(xi_q) . F(xi_q)``

    which equals ``integral N_i (div F) dV`` after integration by parts on
    a periodic (or compactly supported) domain. Both the Convection term
    ``C(x) = div f(x)`` and the Diffusion term ``D(x) = -div(lambda grad x)``
    of the paper's convection-diffusion form reduce to this kernel.

    Parameters
    ----------
    flux:
        ``(E, Q, 3)`` physical flux components at the nodes.

    Returns
    -------
    ``(E, Q)`` nodal residuals (not yet mass-inverted or assembled).
    """
    n1 = ref.n1
    num_elem = flux.shape[0]
    if flux.shape != (num_elem, n1**3, 3):
        raise FEMError(f"flux must be (E, {n1 ** 3}, 3), got {flux.shape}")
    inv = geom.inverse_jacobian.astype(flux.dtype, copy=False)
    scale = geom.quadrature_scale(ref).astype(flux.dtype, copy=False)

    # G[e, r, q] = scale * sum_p invJ[r, p] * F_p  (contravariant flux)
    if inv.shape[1] == 1:
        g = np.einsum("eqp,erp->erq", flux, inv[:, 0], optimize=True)
    else:
        g = np.einsum("eqp,eqrp->erq", flux, inv, optimize=True)
    g *= scale[:, None, :]

    d = ref.diff.astype(flux.dtype, copy=False)
    gz = g.reshape(num_elem, 3, n1, n1, n1)
    # R = -(Dx^T Gx + Dy^T Gy + Dz^T Gz), D^T applied along the matching axis:
    # out[a] = sum_q D[q, a] G[q].
    res = np.einsum("qa,ezyq->ezya", d, gz[:, 0], optimize=True)
    res += np.einsum("qa,ezqy->ezay", d, gz[:, 1], optimize=True)
    res += np.einsum("qa,eqzy->eazy", d, gz[:, 2], optimize=True)
    return -res.reshape(num_elem, n1**3)


def element_integrals(
    field: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
) -> np.ndarray:
    """GLL-quadrature integral of a nodal field over each element."""
    n1 = ref.n1
    if field.ndim != 2 or field.shape[1] != n1**3:
        raise FEMError(f"field must be (E, {n1 ** 3}), got {field.shape}")
    scale = geom.quadrature_scale(ref)
    return np.einsum("eq,eq->e", field, scale, optimize=True)


def element_mass_matrix_diagonal(
    geom: ElementGeometry, ref: ReferenceHex
) -> np.ndarray:
    """Diagonal of the collocated-GLL element mass matrix, ``(E, Q)``.

    Collocating interpolation and quadrature nodes makes the element mass
    matrix exactly diagonal with entries ``w_q |det J|_q`` — the property
    that lets the paper's linear system ``K x = b`` have diagonal ``K``.
    """
    return geom.quadrature_scale(ref).copy()
