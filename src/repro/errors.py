"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class. Subsystem-specific subclasses let
tests and tools discriminate failure modes precisely.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent."""


class MeshError(ReproError):
    """Mesh construction or validation failed."""


class FEMError(ReproError):
    """Finite-element machinery (basis, quadrature, assembly) failed."""


class PhysicsError(ReproError):
    """A physical state is invalid (negative density, pressure, ...)."""


class TimeIntegrationError(ReproError):
    """Time integration failed (bad tableau, unstable step, ...)."""


class SolverError(ReproError):
    """The Navier-Stokes solver failed or diverged."""


class PipelineError(ReproError):
    """An operator pipeline (stage graph IR) is malformed or cannot be
    executed/rewritten as requested."""


class DataflowError(ReproError):
    """A dataflow graph is malformed or its simulation failed."""


class DataflowValidationError(DataflowError):
    """A dataflow graph violates a structural rule.

    The paper (Section III-B) requires the Single-Producer-Single-Consumer
    rule and forbids inter-task buffers that bypass tasks; violations are
    reported with this error.
    """


class DeadlockError(DataflowError):
    """The cycle-level dataflow simulation detected a deadlock."""


class HLSError(ReproError):
    """HLS scheduling, binding, or resource estimation failed."""


class DirectiveError(HLSError):
    """An HLS directive is invalid for the loop or array it targets."""


class FPGAError(ReproError):
    """Device-model level failure (floorplan, memory system, power)."""


class FloorplanError(FPGAError):
    """Kernels cannot be legally placed onto SLRs."""


class CalibrationError(ReproError):
    """A calibrated model constant is out of its documented valid range."""


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or produced no data."""


class DSEError(ReproError):
    """A design-space-exploration campaign is misconfigured or failed
    (invalid design point, empty grid, unknown tier, cache misuse)."""


class CheckpointError(DSEError):
    """A campaign checkpoint journal cannot be used for the requested
    resume (wrong campaign fingerprint, unusable journal path)."""
