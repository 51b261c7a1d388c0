"""Shared configuration objects and unit helpers.

The library spans two worlds: a *functional* CFD solver (SI-ish units,
nondimensionalized by the Taylor-Green reference scales) and a *timing*
world (cycles, hertz, bytes). This module centralizes the small amount of
shared configuration and the cycles-to-seconds conversion so the two
worlds never disagree on what a clock cycle costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError
from .precision.modes import resolve_dtype

# ---------------------------------------------------------------------------
# Unit helpers
# ---------------------------------------------------------------------------

BYTES_PER_FP32 = 4
BYTES_PER_FP64 = 8


def seconds_from_cycles(cycles: float, frequency_hz: float) -> float:
    """Wall-clock seconds taken by ``cycles`` at ``frequency_hz``."""
    if frequency_hz <= 0:
        raise ConfigurationError(f"frequency must be positive, got {frequency_hz}")
    return float(cycles) / float(frequency_hz)


# ---------------------------------------------------------------------------
# Precision configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Precision:
    """Floating-point precision used by the solver and the accelerator.

    The paper's accelerator computes in 32-bit floating point (as do the
    FDM accelerators it compares against, e.g. FDMAX); the functional
    reference solver defaults to float64 for validation headroom.
    """

    name: str
    bytes_per_value: int

    def __post_init__(self) -> None:
        if self.bytes_per_value not in (2, 4, 8):
            raise ConfigurationError(
                f"unsupported precision width: {self.bytes_per_value} bytes"
            )


FP32 = Precision(name="fp32", bytes_per_value=BYTES_PER_FP32)
FP64 = Precision(name="fp64", bytes_per_value=BYTES_PER_FP64)


# ---------------------------------------------------------------------------
# Simulation-wide configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Configuration of the functional FEM Navier-Stokes solver.

    Attributes
    ----------
    polynomial_order:
        GLL polynomial order per element direction. Order 2 gives 27-node
        hexahedra (3x3x3 GLL points), matching the spectral-element setup
        of SOD2D that the paper builds on.
    cfl:
        Advective CFL number used by the automatic time-step controller.
    viscosity:
        Dynamic viscosity (constant; the TGV problem uses a constant-mu
        Newtonian fluid).
    prandtl:
        Prandtl number linking viscosity and thermal conductivity.
    gamma:
        Ratio of specific heats for the ideal gas.
    gas_constant:
        Specific gas constant R.
    backend:
        Name of the compute backend executing the FEM hot kernels
        (``"reference"``, ``"fast"``, or any name registered with
        :func:`repro.backend.register_backend`). ``None`` defers to the
        ``REPRO_BACKEND`` environment variable, then ``"reference"``.
        Resolved lazily — validation of the *name* happens when a solver
        asks the registry for it, so configs can be built before custom
        backends register.
    dtype:
        Precision mode for fields and accumulators (``"float64"``,
        ``"float32"``, or ``"mixed"`` — see
        :mod:`repro.precision.modes`). ``None`` defers to the
        ``REPRO_DTYPE`` environment variable, then ``"float64"``.
    """

    polynomial_order: int = 2
    cfl: float = 0.5
    viscosity: float = 1.0 / 1600.0
    prandtl: float = 0.71
    gamma: float = 1.4
    gas_constant: float = 287.0
    backend: str | None = None
    dtype: str | None = None

    def __post_init__(self) -> None:
        if self.backend is not None and (
            not isinstance(self.backend, str) or not self.backend.strip()
        ):
            raise ConfigurationError(
                "backend must be None or a non-empty backend name"
            )
        if self.dtype is not None:
            resolve_dtype(self.dtype)  # raises on unknown modes
        if self.polynomial_order < 1:
            raise ConfigurationError("polynomial_order must be >= 1")
        if not (0.0 < self.cfl <= 2.0):
            raise ConfigurationError("cfl must lie in (0, 2]")
        if self.viscosity < 0:
            raise ConfigurationError("viscosity must be non-negative")
        if self.prandtl <= 0:
            raise ConfigurationError("prandtl must be positive")
        if self.gamma <= 1.0:
            raise ConfigurationError("gamma must exceed 1")
        if self.gas_constant <= 0:
            raise ConfigurationError("gas_constant must be positive")

    @property
    def nodes_per_direction(self) -> int:
        """GLL nodes per element direction (polynomial order + 1)."""
        return self.polynomial_order + 1

    @property
    def nodes_per_element(self) -> int:
        """Total GLL nodes in one hexahedral element."""
        return self.nodes_per_direction**3

    @property
    def thermal_conductivity_coefficient(self) -> float:
        """kappa / cp = mu / Pr for the constant-Prandtl closure."""
        return self.viscosity / self.prandtl


DEFAULT_SOLVER_CONFIG = SolverConfig()


@dataclass(frozen=True)
class MeshSpec:
    """Shorthand description of a periodic TGV box mesh.

    ``elements_per_direction`` hex elements per axis over ``[0, 2*pi]^3``
    with periodic boundaries. With polynomial order ``p`` the number of
    *unique* nodes is ``(elements_per_direction * p) ** 3``.
    """

    elements_per_direction: int
    polynomial_order: int = 2

    def __post_init__(self) -> None:
        if self.elements_per_direction < 1:
            raise ConfigurationError("elements_per_direction must be >= 1")
        if self.polynomial_order < 1:
            raise ConfigurationError("polynomial_order must be >= 1")

    @property
    def num_elements(self) -> int:
        return self.elements_per_direction**3

    @property
    def num_nodes(self) -> int:
        return (self.elements_per_direction * self.polynomial_order) ** 3

    @classmethod
    def with_at_least_nodes(cls, target_nodes: int, polynomial_order: int = 2) -> "MeshSpec":
        """Smallest periodic box mesh with at least ``target_nodes`` nodes."""
        if target_nodes < 1:
            raise ConfigurationError("target_nodes must be >= 1")
        k = 1
        while (k * polynomial_order) ** 3 < target_nodes:
            k += 1
        return cls(elements_per_direction=k, polynomial_order=polynomial_order)


# Mesh node counts evaluated in the paper (Fig. 5 x-axis).
PAPER_FIG5_NODE_COUNTS = (
    5_000,
    275_000,
    1_400_000,
    2_100_000,
    3_000_000,
    4_200_000,
)

# Mesh node counts used for the CPU profiling breakdown (Fig. 2: 1M-4M).
PAPER_FIG2_NODE_COUNTS = (1_000_000, 2_000_000, 3_000_000, 4_000_000)

# The "real-world scenario" mesh used in the CPU comparison (Section IV-B).
PAPER_CPU_COMPARISON_NODES = 4_200_000


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one end-to-end simulated run.

    ``num_time_steps`` RK4 steps are executed; Fig. 5 measures the RK
    method's execution time which scales linearly in this value, so the
    default keeps benchmarks quick while remaining faithful in shape.
    """

    mesh: MeshSpec
    num_time_steps: int = 10
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if self.num_time_steps < 1:
            raise ConfigurationError("num_time_steps must be >= 1")
        if self.mesh.polynomial_order != self.solver.polynomial_order:
            raise ConfigurationError(
                "mesh and solver polynomial orders disagree: "
                f"{self.mesh.polynomial_order} != {self.solver.polynomial_order}"
            )
