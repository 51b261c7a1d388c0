"""repro — reproduction of "Dataflow Optimized Reconfigurable Acceleration
for FEM-based CFD Simulations" (DATE 2025, Kapetanakis et al.).

The package contains two cooperating halves:

1. a **functional substrate** — a complete GLL spectral-element solver for
   the 3D compressible Navier-Stokes equations (:mod:`repro.mesh`,
   :mod:`repro.fem`, :mod:`repro.physics`, :mod:`repro.timeint`,
   :mod:`repro.solver`) evaluated on the Taylor-Green Vortex problem;
2. a **timing substrate** — cycle-level models of the paper's FPGA
   accelerator and its baselines (:mod:`repro.dataflow`, :mod:`repro.hls`,
   :mod:`repro.fpga`, :mod:`repro.accel`, :mod:`repro.cpu`), driven by the
   workload characterization of the functional solver.

The :mod:`repro.experiments` package regenerates every table and figure of
the paper's evaluation from these models; README.md maps the packages.
"""

from importlib.metadata import PackageNotFoundError, version

try:  # pragma: no cover - depends on installation mode
    __version__ = version("repro")
except PackageNotFoundError:  # pragma: no cover
    __version__ = "0.0.0+uninstalled"

from .errors import ReproError

__all__ = ["ReproError", "__version__"]
