"""The :class:`KernelBackend` protocol — the five hot FEM kernels.

The paper's whole contribution is that the FEM spatial operator is a
small, fixed dataflow (Fig. 1: gather -> gradients/fluxes -> weak
divergence -> scatter) whose kernels can be re-expressed for different
execution substrates. This module pins that observation down in software:
every kernel the solver's hot path touches is a method of
:class:`KernelBackend`, and the solver only ever calls the backend.

The five primitive kernels (the Fig. 1 stages):

- :meth:`KernelBackend.gather` — LOAD-Element;
- :meth:`KernelBackend.scatter_add` — STORE-Element-Contribution;
- :meth:`KernelBackend.reference_gradient` — sum-factorized derivative
  in reference coordinates;
- :meth:`KernelBackend.physical_gradient` — reference gradient plus the
  inverse-Jacobian metric;
- :meth:`KernelBackend.weak_divergence` — the integrated-by-parts
  divergence residual.

Batched ``*_many`` variants operate on stacked ``(F, ...)`` fields. The
base class provides loop-over-fields defaults so a minimal backend only
implements the five primitives; optimized backends override the batched
forms with fused contractions (see :mod:`repro.backend.fast`).

How the kernels are *composed* is no longer the backend's concern: the
operator pipeline IR (:mod:`repro.pipeline`) declares the stage graph
that names these kernels, and the same graph is executed functionally by
the solver and cycle-accurately by the co-simulator — so a new backend
registered here is automatically co-simulable.

Array conventions match :mod:`repro.fem.operators`: element fields are
``(E, Q)``, physical gradients ``(E, Q, 3)``, fluxes ``(E, Q, 3)``.
"""

from __future__ import annotations

import abc

import numpy as np

from ..fem.geometry import ElementGeometry
from ..fem.reference import ReferenceHex
from ..precision.modes import FLOAT64_POLICY, PrecisionPolicy


class KernelBackend(abc.ABC):
    """Execution substrate for the FEM hot-path kernels.

    Implementations must be numerically interchangeable: the test suite
    asserts every registered backend matches the ``"reference"`` oracle
    to tight tolerance on all kernels and on a full RHS evaluation.

    Every kernel is *dtype-preserving*: float32 inputs produce float32
    outputs (the accelerator's native precision), float64 inputs stay
    float64 (the oracle). The only precision *choice* a backend makes
    is the scatter-add reduction dtype, governed by its
    :class:`~repro.precision.modes.PrecisionPolicy` (set at
    construction via the ``precision`` argument, defaulting to the
    float64/mixed behaviour of accumulating f32 streams in f64).
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Precision policy; class-level default so subclasses with custom
    #: constructors that skip ``super().__init__`` still resolve.
    precision: PrecisionPolicy = FLOAT64_POLICY

    def __init__(self, precision: str | PrecisionPolicy | None = None) -> None:
        self.precision = PrecisionPolicy.resolve(precision)

    def accumulate_dtype(self, values_dtype) -> np.dtype:
        """Reduction dtype for scatter-adds over ``values_dtype`` streams."""
        return self.precision.accumulate_for(values_dtype)

    # -- assembly (LOAD / STORE) -------------------------------------------

    @abc.abstractmethod
    def gather(self, global_field: np.ndarray, connectivity: np.ndarray) -> np.ndarray:
        """Element-local view ``(E, Q)`` (or ``(F, E, Q)``) of a global field."""

    @abc.abstractmethod
    def scatter_add(
        self, element_values: np.ndarray, connectivity: np.ndarray, num_nodes: int
    ) -> np.ndarray:
        """Accumulate ``(E, Q)`` element values into a ``(num_nodes,)`` array."""

    def scatter_add_many(
        self, element_values: np.ndarray, connectivity: np.ndarray, num_nodes: int
    ) -> np.ndarray:
        """Scatter stacked fields ``(F, E, Q)`` to ``(F, num_nodes)``."""
        element_values = np.asarray(element_values)
        out = np.empty(
            (element_values.shape[0], num_nodes), dtype=element_values.dtype
        )
        for f_idx in range(element_values.shape[0]):
            out[f_idx] = self.scatter_add(
                element_values[f_idx], connectivity, num_nodes
            )
        return out

    # -- differentiation ----------------------------------------------------

    @abc.abstractmethod
    def reference_gradient(self, field: np.ndarray, ref: ReferenceHex) -> np.ndarray:
        """``(E, 3, Q)`` gradient in reference coordinates of ``(E, Q)``."""

    @abc.abstractmethod
    def physical_gradient(
        self, field: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        """``(E, Q, 3)`` gradient in physical coordinates of ``(E, Q)``."""

    def physical_gradient_many(
        self, fields: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        """Physical gradients of stacked fields ``(F, E, Q)`` -> ``(F, E, Q, 3)``."""
        fields = np.asarray(fields)
        out = np.empty(fields.shape + (3,), dtype=fields.dtype)
        for f_idx in range(fields.shape[0]):
            out[f_idx] = self.physical_gradient(fields[f_idx], geom, ref)
        return out

    # -- weak divergence -----------------------------------------------------

    @abc.abstractmethod
    def weak_divergence(
        self, flux: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        """``(E, Q)`` weak-form divergence residual of a ``(E, Q, 3)`` flux."""

    def weak_divergence_many(
        self, fluxes: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        """Weak divergences of stacked fluxes ``(F, E, Q, 3)`` -> ``(F, E, Q)``.

        The result is a fresh array owned by the caller: no later call
        reads or writes it, so callers may scale it in place.
        """
        fluxes = np.asarray(fluxes)
        out = np.empty(fluxes.shape[:-1], dtype=fluxes.dtype)
        for f_idx in range(fluxes.shape[0]):
            out[f_idx] = self.weak_divergence(fluxes[f_idx], geom, ref)
        return out

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release any resources the backend holds (worker pools, shared
        memory). A no-op for stateless backends; parallel backends
        override it. Idempotent — callers may close unconditionally."""

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"
