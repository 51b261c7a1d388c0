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
_CHUNK = 32


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
    # ``np.unique`` sorts them lexicographically, every dominator before
    # what it dominates, and between distinct rows <= in every column
    # means < in one. So one pass over sorted chunks tests each row with
    # <= against the running front and its own chunk: (n, |front|, k)
    # comparisons, not the naive (n, n, k).
    rows, inverse = np.unique(values, axis=0, return_inverse=True)
    dominated = np.zeros(len(rows), dtype=bool)
    front = np.empty((0, rows.shape[1]))
    for start in range(0, len(rows), _CHUNK):
        block = rows[start : start + _CHUNK]
        # Dominated by a front member or another row of this chunk? (A
        # dominated dominator's own dominator dominates the row too.)
        dead = (front[None] <= block[:, None]).all(axis=2).any(axis=1)
        within = (block[None] <= block[:, None]).all(axis=2)
        np.fill_diagonal(within, False)
        dead |= within.any(axis=1)
        dominated[start : start + _CHUNK] = dead
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
    # One list per objective, not one per result: half the build time.
    matrix = np.array(
        [[getattr(r, name) for r in results] for name in objectives]
    ).T
    return [results[i] for i in pareto_indices(matrix)]
