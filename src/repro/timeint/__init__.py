"""Explicit Runge-Kutta time integration (paper Section II-B).

The paper advances the semi-discrete FEM system with the classical
fourth-order Runge-Kutta method (RK4). This package provides Butcher
tableaus for a family of explicit schemes, a generic RK step that
consumes them, and the CFL-based step-size controller.
"""

from .butcher import (
    ButcherTableau,
    RK4,
    RK4_38,
    HEUN2,
    FORWARD_EULER,
    SSP_RK3,
)
from .runge_kutta import rk_step
from .cfl import advective_time_step, diffusive_time_step, stable_time_step

__all__ = [
    "ButcherTableau",
    "RK4",
    "RK4_38",
    "HEUN2",
    "FORWARD_EULER",
    "SSP_RK3",
    "rk_step",
    "advective_time_step",
    "diffusive_time_step",
    "stable_time_step",
]
