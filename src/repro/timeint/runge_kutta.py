"""Generic explicit Runge-Kutta driver.

The right-hand side is any callable ``rhs(t, y) -> dy/dt`` over numpy
arrays; :func:`rk_step` drives the tableau family on ODE systems (the
convergence and tableau tests). The Navier-Stokes solver does not come
through here: :meth:`Simulation.step
<repro.solver.simulation.Simulation.step>` runs the RK-update pipelines
(:func:`repro.pipeline.rk_update.rk_update_pipeline`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import TimeIntegrationError
from .butcher import ButcherTableau

RHSFunc = Callable[[float, np.ndarray], np.ndarray]


def _accumulate_weighted(
    derivs: list[np.ndarray], coeffs, out: np.ndarray, scratch: np.ndarray
) -> bool:
    """``out = sum_k coeffs[k] * derivs[k]`` without per-term temporaries.

    The naive ``acc = acc + coeff * deriv`` accumulation allocates two
    arrays per nonzero tableau entry — O(stages^2) temporaries per step
    once every stage row is combined. Reusing one accumulator and one
    scratch buffer across the whole step keeps the arithmetic (and its
    floating-point evaluation order) identical while allocating exactly
    two buffers per step. Returns False when every coefficient is zero
    (``out`` untouched).
    """
    first = True
    for deriv, coeff in zip(derivs, coeffs):
        c = float(coeff)
        if c == 0.0:
            continue
        if first:
            np.multiply(deriv, c, out=out)
            first = False
        else:
            np.multiply(deriv, c, out=scratch)
            out += scratch
    return not first


def rk_step(
    rhs: RHSFunc, t: float, y: np.ndarray, dt: float, tableau: ButcherTableau
) -> np.ndarray:
    """One explicit RK step from ``(t, y)`` with step size ``dt``.

    Returns the new state; ``y`` is not modified. Stage-increment
    accumulation runs in two buffers reused across the stages (see
    :func:`_accumulate_weighted`).
    """
    if dt <= 0:
        raise TimeIntegrationError(f"dt must be positive, got {dt}")
    y = np.asarray(y, dtype=np.float64)
    num_stages = tableau.num_stages
    increment = np.empty_like(y)
    scratch = np.empty_like(y)
    stage_derivs: list[np.ndarray] = []
    for stage in range(num_stages):
        y_stage = y
        if stage > 0 and _accumulate_weighted(
            stage_derivs, tableau.a[stage, :stage], increment, scratch
        ):
            y_stage = y + dt * increment
        stage_derivs.append(
            np.asarray(rhs(t + tableau.c[stage] * dt, y_stage), dtype=np.float64)
        )
    result = y.copy()
    for stage in range(num_stages):
        weight = tableau.b[stage]
        if weight != 0.0:
            np.multiply(stage_derivs[stage], dt * weight, out=scratch)
            result += scratch
    return result
