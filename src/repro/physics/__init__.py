"""Compressible-flow physics: constitutive laws, fluxes, the TGV case.

Implements the continuous physics of the paper's Section II-A — the 3D
compressible Navier-Stokes equations (mass, momentum, energy) closed by
the ideal-gas law, a Newtonian viscous stress tensor and Fourier heat
conduction — plus the Taylor-Green Vortex initial/boundary conditions
used for evaluation, and the diagnostics (kinetic energy, enstrophy)
used to validate the solver substrate.
"""

from .gas import GasProperties
from .state import FlowState
from .viscous import stress_tensor
from .fluxes import convective_fluxes, viscous_fluxes, FluxSet
from .taylor_green import (
    TGVCase,
    taylor_green_initial,
    taylor_green_2d_exact,
    DEFAULT_TGV,
)
from .diagnostics import (
    volume_average,
    kinetic_energy,
    enstrophy,
    total_mass,
)

__all__ = [
    "GasProperties",
    "FlowState",
    "stress_tensor",
    "convective_fluxes",
    "viscous_fluxes",
    "FluxSet",
    "TGVCase",
    "taylor_green_initial",
    "taylor_green_2d_exact",
    "DEFAULT_TGV",
    "volume_average",
    "kinetic_energy",
    "enstrophy",
    "total_mass",
]
