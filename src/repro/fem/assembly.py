"""Global assembly: gather/scatter between nodal fields and elements.

FEM couples elements only through shared nodes. The two primitives are:

- :func:`gather` — LOAD-Element in Fig. 1: pull each element's node values
  out of a global array;
- :func:`scatter_add` — STORE-Element-Contribution: accumulate per-element
  residuals back into the global array (direct stiffness summation).

The lumped (diagonal) global mass matrix is the scatter of the element
quadrature scales; inverting it is a pointwise division, which is what
makes the paper's system ``K x = b`` trivially solvable on the FPGA.
"""

from __future__ import annotations

import numpy as np

from ..errors import FEMError
from .geometry import ElementGeometry
from .operators import element_mass_matrix_diagonal
from .reference import ReferenceHex


def gather(global_field: np.ndarray, connectivity: np.ndarray) -> np.ndarray:
    """Element-local view of a global nodal field.

    ``global_field`` is ``(N,)`` (or ``(F, N)`` for stacked fields);
    returns ``(E, Q)`` (or ``(F, E, Q)``).
    """
    global_field = np.asarray(global_field)
    if global_field.ndim == 1:
        return global_field[connectivity]
    if global_field.ndim == 2:
        return global_field[:, connectivity]
    raise FEMError(f"global_field must be 1D or 2D, got shape {global_field.shape}")


def scatter_add(
    element_values: np.ndarray,
    connectivity: np.ndarray,
    num_nodes: int,
    accumulate_dtype=None,
) -> np.ndarray:
    """Accumulate element-local values into a global nodal array.

    Shared nodes receive the *sum* of all element contributions
    (direct stiffness summation). By default accumulation happens in
    float64 via ``bincount`` and the result is cast back so the input
    dtype is preserved — float32 streams accumulate wide and store
    narrow, the ``"mixed"`` precision mode.

    ``accumulate_dtype=np.float32`` instead sums with ``np.add.at`` in
    float32, in flat element order — the device-faithful ``"float32"``
    reduction, bitwise-deterministic because ``ufunc.at`` is unbuffered
    and applies contributions in index order (a raveled 1-D index:
    numpy's fast loop).
    """
    element_values = np.asarray(element_values)
    if element_values.shape != connectivity.shape:
        raise FEMError(
            "element_values and connectivity shapes differ: "
            f"{element_values.shape} vs {connectivity.shape}"
        )
    acc = np.float64 if accumulate_dtype is None else np.dtype(accumulate_dtype)
    if np.dtype(acc) == np.float64:
        flat_idx = connectivity.ravel()
        flat_val = np.ascontiguousarray(element_values, dtype=np.float64).ravel()
        out = np.bincount(flat_idx, weights=flat_val, minlength=num_nodes)
    else:
        out = np.zeros(num_nodes, dtype=acc)
        np.add.at(out, connectivity.ravel(), element_values.ravel())
    if element_values.dtype != out.dtype:
        out = out.astype(element_values.dtype)
    return out


def scatter_add_many(
    element_values: np.ndarray,
    connectivity: np.ndarray,
    num_nodes: int,
    accumulate_dtype=None,
) -> np.ndarray:
    """Scatter several stacked fields ``(F, E, Q)`` at once to ``(F, N)``."""
    element_values = np.asarray(element_values)
    if element_values.ndim != 3:
        raise FEMError(f"element_values must be (F, E, Q), got {element_values.shape}")
    out = np.empty((element_values.shape[0], num_nodes), dtype=element_values.dtype)
    for f_idx in range(element_values.shape[0]):
        out[f_idx] = scatter_add(
            element_values[f_idx],
            connectivity,
            num_nodes,
            accumulate_dtype=accumulate_dtype,
        )
    return out


def assembly_multiplicity(connectivity: np.ndarray, num_nodes: int) -> np.ndarray:
    """How many elements touch each global node (the DSS multiplicity)."""
    return np.bincount(connectivity.ravel(), minlength=num_nodes).astype(np.float64)


def lumped_mass(
    connectivity: np.ndarray,
    num_nodes: int,
    geom: ElementGeometry,
    ref: ReferenceHex,
) -> np.ndarray:
    """Global lumped (diagonal) mass matrix, shape ``(N,)``.

    Every entry is strictly positive on a valid mesh; the solver divides by
    it to apply ``K^{-1}``.
    """
    diag = element_mass_matrix_diagonal(geom, ref)
    mass = scatter_add(diag, connectivity, num_nodes)
    if (mass <= 0.0).any():
        raise FEMError("lumped mass has non-positive entries; mesh is degenerate")
    return mass
