"""The FEM spatial operator for the compressible Navier-Stokes equations.

This is the computational core the paper accelerates, organized exactly
as its Fig. 1 dataflow graph — and, since the operator-pipeline IR
refactor, *declared* as one: the operator builds an
:class:`~repro.pipeline.ir.OperatorPipeline` instance for its fusion
level and executes it functionally
one element block at a time
(:func:`~repro.pipeline.executor.run_blocked_pipeline`). The same IR
instance is what the accelerator co-simulator streams real elements
through and what the workload characterization derives its per-stage
operation counts from.

Every kernel on this path — gather, gradients, weak divergences,
scatter-add — routes through a pluggable :class:`~repro.backend.KernelBackend`
(select with the ``backend`` argument, ``SolverConfig.backend``, or the
``REPRO_BACKEND`` environment variable), the software analogue of the
paper's retargetable dataflow.

Three fusion levels control how much of the Fig. 1 round-trip the two
passes share (``fusion=``); each is a *graph rewrite* of the base
pipeline (:mod:`repro.pipeline.rewrites`), not a separate code path:

- ``"none"`` — independent gather/scatter per pass, mirroring the
  paper's profiled C++ (whose diffusion and convection functions are
  independent, which is also what lets the accelerator merge them);
- ``"gather"`` — one shared gather, separate scatters;
- ``"full"`` — one gather, the convective and viscous fluxes combined
  per node, one weak divergence and one scatter-add for the summed
  residual: the software analogue of the accelerator's merged
  diffusion+convection COMPUTE module. Fastest; phase attribution of the
  shared stages degrades to RK(Other).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..backend import KernelBackend, get_backend
from ..errors import SolverError
from ..fem.assembly import lumped_mass
from ..precision.modes import PrecisionPolicy
from ..fem.geometry import compute_geometry
from ..fem.reference import reference_hex
from ..mesh.hexmesh import HexMesh
from ..mesh.partition import element_blocks
from ..physics.gas import GasProperties
from ..physics.state import NUM_CONSERVED, FlowState
from ..pipeline import (
    PipelineContext,
    assembled_total,
    element_residuals,
    navier_stokes_pipeline,
    run_blocked_pipeline,
)
from .profiler import PhaseProfiler

#: Valid values of the ``fusion`` parameter.
FUSION_MODES = ("none", "gather", "full")

#: Bytes of one residual block's ``(5, B, Q, 3)`` flux payload. Each
#: stage's working set on a block (state, gradients and payload for the
#: flux; payload, backend scratch and result for the divergence) is then
#: ~1.6 MiB, inside a 2 MiB per-core L2, and one residual's transient
#: memory stays below glibc's dynamic heap-trim threshold, so freed blocks
#: are reused by the next call instead of being returned to the OS and
#: faulted back in. Swept from 64 KiB to 4 MiB on ``tgv_p3`` (8^3 p=3
#: f64, fast backend, 2-core Xeon), 512 KiB (68 elements, 8 blocks) had
#: the lowest step time: smaller blocks pay per-call overhead (64 KiB is
#: 2x slower), larger ones fault again (1 MiB: ~3.8k minor faults per
#: step against ~0.7k; one whole-mesh block: ~9k) and raise peak RSS.
BLOCK_PAYLOAD_BYTES = 512 * 1024


class NavierStokesOperator:
    """Semi-discrete right-hand side ``dq/dt = L(q)`` on a hex mesh.

    Parameters
    ----------
    mesh:
        The spectral-element mesh (periodic for the TGV case).
    gas:
        Working-fluid properties.
    profiler:
        Optional :class:`PhaseProfiler`; phases ``rk.diffusion``,
        ``rk.convection`` and ``rk.other`` are attributed per pipeline
        stage as in the paper's Fig. 2.
    fusion:
        One of :data:`FUSION_MODES`.
    backend:
        Compute backend for the hot kernels: a name (``"reference"``,
        ``"fast"``), a
        :class:`~repro.backend.KernelBackend` instance, or ``None`` for
        the environment/default selection.
    dtype:
        Precision mode for the hot path: ``"float64"`` (the oracle),
        ``"float32"`` (device-faithful, including f32 scatter
        accumulation), or ``"mixed"`` (f32 streams, f64 accumulation —
        the accelerator's DSP accumulator model). ``None`` defers to
        the ``REPRO_DTYPE`` environment variable, then ``"float64"``.
        A :class:`~repro.precision.modes.PrecisionPolicy` is accepted
        too.
    """

    def __init__(
        self,
        mesh: HexMesh,
        gas: GasProperties,
        profiler: PhaseProfiler | None = None,
        fusion: str = "none",
        backend: str | KernelBackend | None = None,
        dtype: str | PrecisionPolicy | None = None,
    ) -> None:
        self.mesh = mesh
        self.gas = gas
        if fusion not in FUSION_MODES:
            raise SolverError(
                f"fusion must be one of {FUSION_MODES}, got {fusion!r}"
            )
        self.fusion = fusion
        if dtype is None and isinstance(backend, KernelBackend):
            # A pre-built backend carries its own policy; stay coherent
            # with it rather than re-resolving the environment default.
            self.precision = backend.precision
        else:
            self.precision = PrecisionPolicy.resolve(dtype)
        self.backend = get_backend(backend, precision=self.precision)
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.ref = reference_hex(mesh.polynomial_order)
        self.geom = compute_geometry(mesh.corner_coords, self.ref)
        self.mass = lumped_mass(
            mesh.connectivity, mesh.num_nodes, self.geom, self.ref
        )
        # Storage-dtype mass so float32 residuals are mass-inverted in
        # float32 (dividing by the float64 mass would silently upcast).
        self._mass_storage = self.mass.astype(
            self.precision.storage, copy=False
        )
        #: The declarative stage graph this operator executes.
        self.pipeline = navier_stokes_pipeline(fusion)
        self._ctx = PipelineContext.from_operator(self)
        # Wall-bounded meshes (any non-periodic axis) get strongly
        # enforced no-slip isothermal walls: momentum and energy are held
        # at the wall values by zeroing their residuals on wall nodes.
        if mesh.periodic:
            self.wall_nodes: np.ndarray = np.empty(0, dtype=np.int64)
        else:
            from ..mesh.boundary import tag_box_boundaries

            tags = tag_box_boundaries(mesh)
            self.wall_nodes = np.nonzero(tags != 0)[0]

    @cached_property
    def _blocks(self) -> list[tuple[slice, PipelineContext]]:
        """Contiguous ``(slice, view context)`` residual blocks, each
        holding :data:`BLOCK_PAYLOAD_BYTES` of flux payload. Built on
        first use: the co-simulator's per-call ``Simulation`` never
        evaluates :meth:`residual` and never pays for them."""
        per_element = (
            NUM_CONSERVED * 3 * self.mesh.nodes_per_element
            * np.dtype(self.precision.storage).itemsize
        )
        size = max(1, BLOCK_PAYLOAD_BYTES // per_element)
        blocks = element_blocks(np.arange(self.mesh.num_elements), size)
        slices = [slice(int(b[0]), int(b[-1]) + 1) for b in blocks]
        return [(sl, self._ctx.element_block(sl)) for sl in slices]

    # -- element-pass diagnostics (compute-only pipeline execution) ----------

    def convection_element_residuals(self, state_elem: np.ndarray) -> np.ndarray:
        """Per-element convection residuals ``-div F_c`` (weak), ``(5, E, Q)``.

        Executes the convection branch of the unfused pipeline on an
        already gathered element state.
        """
        return element_residuals(
            navier_stokes_pipeline("none"),
            self._ctx,
            state_elem,
            phases=("rk.convection",),
        )

    def diffusion_element_residuals(self, state_elem: np.ndarray) -> np.ndarray:
        """Per-element diffusion residuals ``+div F_v`` (weak), ``(5, E, Q)``.

        Executes the diffusion branch — node gradients of velocity and
        temperature, the stress tensor ``tau``, and the viscous/heat
        fluxes (the 2a/2b/2c node stages of the paper's Fig. 3); the
        mass row has no viscous flux and stays exactly zero.
        """
        return element_residuals(
            navier_stokes_pipeline("none"),
            self._ctx,
            state_elem,
            phases=("rk.diffusion",),
        )

    def fused_element_residuals(self, state_elem: np.ndarray) -> np.ndarray:
        """Convection + diffusion residuals in one pass, ``(5, E, Q)``.

        Executes the fully fused pipeline's compute stages: combined
        fluxes per node and a *single* weak divergence per conserved
        field (5 instead of 9). Linearity of the weak divergence makes
        this exactly the sum of the two separate passes (up to rounding).
        """
        return element_residuals(
            navier_stokes_pipeline("full"), self._ctx, state_elem
        )

    # -- global residual ------------------------------------------------------

    def _gather_state(self, stacked: np.ndarray) -> np.ndarray:
        """LOAD-element: ``(5, N)`` global state to ``(5, E, Q)`` local."""
        return self.backend.gather(stacked, self.mesh.connectivity)

    def finalize_residual(self, assembled: np.ndarray) -> np.ndarray:
        """Mass inversion + wall conditions on an assembled ``(5, N)`` sum.

        Shared by :meth:`residual` and the streaming co-simulation so
        both finish the element pipeline identically. The diagonal
        lumped mass is inverted pointwise; on wall-bounded meshes the
        no-slip isothermal conditions pin momentum and energy (their
        residuals vanish on wall nodes) while density evolves freely
        (zero normal mass flux holds because the wall velocity is zero).
        """
        with self.profiler.phase("rk.other"):
            mass = (
                self._mass_storage
                if assembled.dtype == self._mass_storage.dtype
                else self.mass
            )
            rhs = assembled / mass[None, :]
            if self.wall_nodes.size:
                rhs[1:, self.wall_nodes] = 0.0
        return rhs

    def residual(self, stacked: np.ndarray) -> np.ndarray:
        """Full right-hand side ``dq/dt`` for the stacked state ``(5, N)``.

        Executes the operator's pipeline instance functionally, one
        element block at a time with one scatter per store at the end
        (:func:`~repro.pipeline.executor.run_blocked_pipeline`). With
        ``fusion="none"`` / ``"gather"`` the diffusion and convection
        contributions are computed by independent element passes (as
        profiled in the paper) and summed after assembly; with
        ``fusion="full"`` one combined pass shares a single
        gather/divergence/scatter round-trip.
        """
        stacked = np.asarray(stacked, dtype=self.precision.storage)
        if stacked.shape != (NUM_CONSERVED, self.mesh.num_nodes):
            raise SolverError(
                f"state must be (5, {self.mesh.num_nodes}), got {stacked.shape}"
            )
        outputs = run_blocked_pipeline(
            self.pipeline,
            self._ctx,
            self._blocks,
            {"state": stacked},
            profiler=self.profiler,
        )
        return self.finalize_residual(assembled_total(outputs))

    # -- diagnostics support ---------------------------------------------------

    def nodal_velocity_gradient(self, state: FlowState) -> np.ndarray:
        """Mass-averaged nodal velocity gradient, shape ``(N, 3, 3)``.

        Element-discontinuous gradients are made single-valued by
        mass-weighted averaging (the standard SEM projection); used by the
        vorticity/enstrophy diagnostics.
        """
        velocity = state.velocity()
        conn = self.mesh.connectivity
        num_nodes = self.mesh.num_nodes
        scale = self.geom.quadrature_scale(self.ref)
        backend = self.backend
        out = np.empty((num_nodes, 3, 3))
        vel_elem = backend.gather(velocity, conn)  # (3, E, Q)
        grads = backend.physical_gradient_many(vel_elem, self.geom, self.ref)
        for i in range(3):
            weighted = backend.scatter_add_many(
                np.moveaxis(grads[i], -1, 0) * scale[None],
                conn,
                num_nodes,
            )
            out[:, i, :] = weighted.T / self.mass[:, None]
        return out

    def stable_dt_inputs(self, state: FlowState) -> tuple[float, float]:
        """``(min GLL spacing, max wave speed)`` for the CFL controller."""
        from ..mesh.metrics import element_min_spacing

        spacing = float(element_min_spacing(self.mesh).min())
        wave = state.max_wave_speed(self.gas)
        return spacing, wave
