"""Barycentric Lagrange interpolation and spectral differentiation.

The FEM trial function of the paper (Section II-B) expands the unknown in
Lagrange shape functions ``N_i`` that equal 1 at their own node and 0 at
every other node. On GLL nodes this module provides:

- stable **barycentric** evaluation of the basis at arbitrary points;
- the **differentiation matrix** ``D`` with ``(D f)_i = f'(x_i)`` exact for
  polynomials up to the basis degree — the workhorse of every gradient in
  the solver;
- interpolation matrices between nodal sets (used for over-integration
  experiments and solution probing).
"""

from __future__ import annotations

import numpy as np

from ..errors import FEMError


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights ``w_j = 1 / prod_{k != j}(x_j - x_k)``."""
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim != 1 or nodes.size < 2:
        raise FEMError("nodes must be a 1D array with at least 2 entries")
    diffs = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diffs, 1.0)
    if np.any(diffs == 0.0):
        raise FEMError("nodes must be distinct")
    return 1.0 / diffs.prod(axis=1)


def lagrange_basis(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate all Lagrange basis polynomials at points ``x``.

    Returns ``L`` with shape ``(len(x), len(nodes))`` where
    ``L[q, j] = N_j(x[q])``. Uses the second barycentric form, which is
    numerically stable for high orders and exact at the nodes.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    w = barycentric_weights(nodes)
    diff = x[:, None] - nodes[None, :]
    exact = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = w[None, :] / diff
        values = terms / terms.sum(axis=1, keepdims=True)
    hit_rows = exact.any(axis=1)
    if hit_rows.any():
        values[hit_rows] = exact[hit_rows].astype(np.float64)
    # Points so close to a node that the division overflowed (subnormal
    # differences): snap to the nearest node's indicator.
    bad_rows = ~np.isfinite(values).all(axis=1)
    if bad_rows.any():
        nearest = np.argmin(np.abs(diff[bad_rows]), axis=1)
        values[bad_rows] = 0.0
        values[np.nonzero(bad_rows)[0], nearest] = 1.0
    return values


def differentiation_matrix(nodes: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix on the given nodes.

    ``D[i, j] = N'_j(x_i)`` so that ``(D @ f)`` evaluates the derivative of
    the interpolant of ``f`` at the nodes. Built with the barycentric
    formula; the diagonal uses the negative row-sum trick, which enforces
    the exact-derivative-of-constants property ``D @ 1 = 0``.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    n = nodes.size
    w = barycentric_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    d[np.arange(n), np.arange(n)] = -d.sum(axis=1)
    return d
