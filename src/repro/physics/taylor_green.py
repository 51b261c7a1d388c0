"""The Taylor-Green Vortex (TGV) problem (paper Section II-A).

The paper solves the compressible Navier-Stokes equations "using the
initial and boundary conditions defined by the Taylor-Green Vortex
problem" (DeBonis 2013 / SOD2D setup): a triply periodic cube seeded with
a smooth vortex array that transitions to turbulence and decays.

This module provides:

- :class:`TGVCase` — the nondimensional parameters (Mach, Reynolds) plus
  the implied :class:`~repro.physics.gas.GasProperties`;
- :func:`taylor_green_initial` — the standard compressible TGV initial
  condition;
- :func:`taylor_green_2d_exact` — the *exact* incompressible 2D
  Taylor-Green solution, the analytic yardstick used by the validation
  tests in the low-Mach limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PhysicsError
from .gas import GasProperties
from .state import FlowState


@dataclass(frozen=True)
class TGVCase:
    """Nondimensional definition of a Taylor-Green Vortex run.

    The reference scales are ``L`` (vortex wavelength / 2*pi of the box),
    ``V0`` (peak velocity) and ``rho0``. Mach and Reynolds numbers then fix
    the gas state and viscosity:

    - ``c0 = V0 / mach``, ``T0 = c0^2 / (gamma R)``, ``p0 = rho0 R T0``;
    - ``mu = rho0 V0 L / reynolds``.
    """

    mach: float = 0.1
    reynolds: float = 1600.0
    length: float = 1.0
    velocity: float = 1.0
    rho0: float = 1.0
    gamma: float = 1.4
    gas_constant: float = 287.0
    prandtl: float = 0.71

    def __post_init__(self) -> None:
        if self.mach <= 0 or self.mach >= 1:
            raise PhysicsError("TGV requires subsonic Mach in (0, 1)")
        if self.reynolds <= 0:
            raise PhysicsError("reynolds must be positive")
        if min(self.length, self.velocity, self.rho0) <= 0:
            raise PhysicsError("length, velocity and rho0 must be positive")

    @property
    def sound_speed0(self) -> float:
        """Reference sound speed ``c0 = V0 / Ma``."""
        return self.velocity / self.mach

    @property
    def temperature0(self) -> float:
        """Reference temperature consistent with ``c0``."""
        return self.sound_speed0**2 / (self.gamma * self.gas_constant)

    @property
    def pressure0(self) -> float:
        """Reference thermodynamic pressure."""
        return self.rho0 * self.gas_constant * self.temperature0

    @property
    def viscosity(self) -> float:
        """Dynamic viscosity implied by the Reynolds number."""
        return self.rho0 * self.velocity * self.length / self.reynolds

    def gas(self) -> GasProperties:
        """Gas properties carried by this case."""
        return GasProperties(
            gamma=self.gamma,
            gas_constant=self.gas_constant,
            viscosity=self.viscosity,
            prandtl=self.prandtl,
        )


DEFAULT_TGV = TGVCase()


def taylor_green_initial(coords: np.ndarray, case: TGVCase = DEFAULT_TGV) -> FlowState:
    """Compressible TGV initial condition at the given nodes.

    ``coords`` is ``(N, 3)``. The velocity field is the classical vortex
    array; the pressure field is the standard compressible perturbation
    (DeBonis 2013); density follows from the ideal-gas law at uniform
    initial temperature ``T0`` (the "isothermal" TGV start).
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise PhysicsError(f"coords must be (N, 3), got {coords.shape}")
    x = coords[:, 0] / case.length
    y = coords[:, 1] / case.length
    z = coords[:, 2] / case.length
    v0 = case.velocity

    u = v0 * np.sin(x) * np.cos(y) * np.cos(z)
    v = -v0 * np.cos(x) * np.sin(y) * np.cos(z)
    w = np.zeros_like(u)
    velocity = np.stack([u, v, w], axis=0)

    pressure = case.pressure0 + (case.rho0 * v0**2 / 16.0) * (
        np.cos(2 * x) + np.cos(2 * y)
    ) * (np.cos(2 * z) + 2.0)
    gas = case.gas()
    rho = pressure / (gas.gas_constant * case.temperature0)
    temperature = np.full_like(rho, case.temperature0)
    return FlowState.from_primitive(rho, velocity, temperature, gas)


def taylor_green_2d_exact(
    coords: np.ndarray, time: float, case: TGVCase = DEFAULT_TGV
) -> tuple[np.ndarray, np.ndarray]:
    """Exact incompressible 2D Taylor-Green solution, embedded in 3D.

    Returns ``(velocity, pressure_perturbation)`` where velocity has shape
    ``(3, N)`` (w = 0 and no z-dependence) and the pressure perturbation is
    relative to the thermodynamic background:

    ``u =  V0 sin x cos y exp(-2 nu t / L^2)``
    ``v = -V0 cos x sin y exp(-2 nu t / L^2)``
    ``p' = (rho0 V0^2 / 4)(cos 2x + cos 2y) exp(-4 nu t / L^2)``

    At low Mach the compressible solver must track this decay — the
    primary analytic validation of the solver substrate.
    """
    coords = np.asarray(coords, dtype=np.float64)
    nu = case.viscosity / case.rho0
    x = coords[:, 0] / case.length
    y = coords[:, 1] / case.length
    decay = np.exp(-2.0 * nu * time / case.length**2)
    u = case.velocity * np.sin(x) * np.cos(y) * decay
    v = -case.velocity * np.cos(x) * np.sin(y) * decay
    w = np.zeros_like(u)
    p_pert = (
        (case.rho0 * case.velocity**2 / 4.0)
        * (np.cos(2 * x) + np.cos(2 * y))
        * decay**2
    )
    return np.stack([u, v, w], axis=0), p_pert


def taylor_green_2d_initial(
    coords: np.ndarray, case: TGVCase = DEFAULT_TGV
) -> FlowState:
    """Compressible state matching the 2D exact solution at ``t = 0``.

    Density is set from the exact pressure field at uniform temperature,
    giving a consistent low-Mach initialization.
    """
    velocity, p_pert = taylor_green_2d_exact(coords, 0.0, case)
    gas = case.gas()
    pressure = case.pressure0 + p_pert
    rho = pressure / (gas.gas_constant * case.temperature0)
    temperature = np.full_like(rho, case.temperature0)
    return FlowState.from_primitive(rho, velocity, temperature, gas)
