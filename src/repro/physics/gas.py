"""Ideal-gas constitutive relations (paper Section II-A).

Total energy ``E`` and pressure ``p`` relate to the solved variables
(density, velocity, temperature) through the ideal-gas law; the fluid has
constant dynamic viscosity ``mu`` and constant Prandtl number, so the
thermal conductivity is ``kappa = cp * mu / Pr``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PhysicsError


@dataclass(frozen=True)
class GasProperties:
    """Thermodynamic and transport properties of the working fluid.

    Attributes
    ----------
    gamma:
        Ratio of specific heats (1.4 for air).
    gas_constant:
        Specific gas constant ``R`` so that ``p = rho * R * T``.
    viscosity:
        Constant dynamic viscosity ``mu``.
    prandtl:
        Prandtl number ``Pr = cp * mu / kappa``.
    """

    gamma: float = 1.4
    gas_constant: float = 287.0
    viscosity: float = 1.0 / 1600.0
    prandtl: float = 0.71

    def __post_init__(self) -> None:
        if self.gamma <= 1.0:
            raise PhysicsError(f"gamma must exceed 1, got {self.gamma}")
        if self.gas_constant <= 0.0:
            raise PhysicsError("gas_constant must be positive")
        if self.viscosity < 0.0:
            raise PhysicsError("viscosity must be non-negative")
        if self.prandtl <= 0.0:
            raise PhysicsError("prandtl must be positive")

    @property
    def cv(self) -> float:
        """Specific heat at constant volume."""
        return self.gas_constant / (self.gamma - 1.0)

    @property
    def cp(self) -> float:
        """Specific heat at constant pressure."""
        return self.gamma * self.cv

    @property
    def thermal_conductivity(self) -> float:
        """Fourier conductivity ``kappa = cp * mu / Pr``."""
        return self.cp * self.viscosity / self.prandtl

    # -- constitutive relations (shape-polymorphic) -------------------------

    def pressure(self, rho: np.ndarray, temperature: np.ndarray) -> np.ndarray:
        """Ideal-gas pressure ``p = rho R T``."""
        return rho * self.gas_constant * temperature

    def internal_energy(self, temperature: np.ndarray) -> np.ndarray:
        """Specific internal energy ``e = cv T``."""
        return self.cv * temperature

    def temperature_from_internal_energy(self, e: np.ndarray) -> np.ndarray:
        """Invert ``e = cv T``."""
        return e / self.cv

    def sound_speed(self, temperature: np.ndarray) -> np.ndarray:
        """Speed of sound ``c = sqrt(gamma R T)``."""
        temperature = np.asarray(temperature)
        if np.any(temperature <= 0):
            raise PhysicsError("temperature must be positive for sound speed")
        return np.sqrt(self.gamma * self.gas_constant * temperature)
