"""Pareto-front extraction over timing and resource objectives.

The campaign's promotion decisions and its published artifact both rest
on the non-dominated set of the priced grid: a point survives when no
other point is at least as good on *every* minimized objective and
strictly better on one. The domination test is a vectorized sorted
cull — candidates compare against the running front, not all ``n``
rows — so fronts over thousand-point grids cost milliseconds.
"""

from __future__ import annotations

import numpy as np

from ..errors import DSEError
from .tiers import PointResult

#: Default minimized objectives: the per-step cycle count and the three
#: contended fabric resources of the N-CU floorplan.
PARETO_OBJECTIVES = ("step_cycles", "lut", "dsp", "bram36")

#: Rows compared per vectorized block of the sorted cull.
_CHUNK = 256


def pareto_indices(values: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows of an ``(n, k)`` objective matrix.

    All objectives minimized. Duplicate rows are all kept (none strictly
    dominates its copies). Indices return in input order, so callers'
    result ordering is deterministic.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise DSEError("pareto_indices needs a non-empty (n, k) matrix")
    # Copies of a row share its fate, so the cull runs over the distinct
    # rows only; a priced grid repeats each objective row several times.
    rows, inverse = np.unique(values, axis=0, return_inverse=True)
    # Lexicographic sort puts every dominator before what it dominates
    # (a dominating row is <= everywhere, hence lex-smaller unless the
    # rows are equal — and equal rows never dominate each other). So a
    # single pass over sorted chunks only ever needs to test against the
    # running front plus the chunk itself, turning the naive (n, n, k)
    # comparison into (n, |front|, k) — milliseconds even when thousand-
    # point grids reduce to a few dozen survivors.
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    dominated = np.zeros(len(rows), dtype=bool)
    front = np.empty((0, rows.shape[1]))
    for start in range(0, len(rows), _CHUNK):
        block = ranked[start : start + _CHUNK]
        # Dominated by an established front member?
        le_all = (front[None, :, :] <= block[:, None, :]).all(axis=2)
        lt_any = (front[None, :, :] < block[:, None, :]).any(axis=2)
        dead = (le_all & lt_any).any(axis=1)
        # ... or by another row of this chunk (transitivity makes a
        # dominated dominator equivalent to its own dominator).
        le_all = (block[:, None, :] >= block[None, :, :]).all(axis=2)
        lt_any = (block[:, None, :] > block[None, :, :]).any(axis=2)
        dead |= (le_all & lt_any).any(axis=1)
        dominated[order[start : start + _CHUNK]] = dead
        front = np.concatenate([front, block[~dead]])
    return np.flatnonzero(~dominated[inverse.reshape(-1)])


def pareto_front(
    results: list[PointResult],
    objectives: tuple[str, ...] = PARETO_OBJECTIVES,
) -> list[PointResult]:
    """The non-dominated results under the given minimized objectives.

    Returns results in their input order; an empty input yields an
    empty front. Raises :class:`~repro.errors.DSEError` on an unknown
    objective name.
    """
    if not results:
        return []
    if not objectives:
        raise DSEError("pareto_front needs at least one objective")
    for name in objectives:
        if not hasattr(results[0], name):
            raise DSEError(f"unknown Pareto objective {name!r}")
    matrix = np.array(
        [[getattr(r, name) for name in objectives] for r in results]
    )
    return [results[i] for i in pareto_indices(matrix)]
