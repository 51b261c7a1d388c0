"""Quadrature exactness helpers used by tests and validation tooling."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import FEMError
from .gll import gll_points_weights


def max_exact_degree(num_points: int) -> int:
    """Highest polynomial degree integrated exactly by ``n``-point GLL."""
    if num_points < 2:
        raise FEMError("GLL rule needs at least 2 points")
    return 2 * num_points - 3


def integrate_1d(func: Callable[[np.ndarray], np.ndarray], num_points: int) -> float:
    """Integrate ``func`` over ``[-1, 1]`` with the ``n``-point GLL rule."""
    pts, wts = gll_points_weights(num_points)
    return float(np.dot(wts, func(pts)))


def monomial_integral(degree: int) -> float:
    """Exact integral of ``x**degree`` over ``[-1, 1]``."""
    if degree < 0:
        raise FEMError("degree must be non-negative")
    if degree % 2 == 1:
        return 0.0
    return 2.0 / (degree + 1)
