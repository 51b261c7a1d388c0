"""Time-stepping driver: the paper's main loop (Section II-C).

Per time step, the driver walks the four RK4 stages — each evaluating the
diffusion and convection terms through the FEM operator — then performs
the RKU-style update of the primitive set ``rho, u, T, E, p``. Both
halves of the step execute pipeline IR: the spatial operator runs its
Navier-Stokes pipeline (inside
:meth:`~repro.solver.navier_stokes.NavierStokesOperator.residual`) and
the stage combinations plus the RKU primitive update run the
:func:`~repro.pipeline.rk_update.rk_update_pipeline` instances via
:func:`~repro.pipeline.executor.run_pipeline` — the same stage graphs
the accelerator co-simulator streams
(:func:`repro.accel.cosim.cosimulate_rk_stage`) and the workload model
prices. Phase attribution follows the paper's Fig. 2 categories:

- ``rk.diffusion`` / ``rk.convection`` — inside the operator;
- ``rk.update`` — RK stage combinations (axpy) and the RKU primitive
  update (counted as RK(Other) alongside ``rk.other``);
- ``non_rk`` — CFL control, diagnostics, setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.registry import require_serial_workers
from ..errors import SolverError
from ..mesh.metrics import element_min_spacing
from ..physics.diagnostics import kinetic_energy, total_mass
from ..physics.gas import GasProperties
from ..physics.state import NUM_CONSERVED, FlowState
from ..physics.taylor_green import TGVCase, taylor_green_initial
from ..pipeline import (
    RKUpdateContext,
    bind_stage_buffers,
    rk_update_pipeline,
    run_pipeline,
)
from ..timeint.butcher import RK4, ButcherTableau
from ..timeint.cfl import stable_time_step
from .navier_stokes import NavierStokesOperator
from .profiler import PhaseProfiler


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics snapshot after one completed time step."""

    step: int
    time: float
    dt: float
    kinetic_energy: float
    total_mass: float
    max_velocity: float


@dataclass
class SimulationResult:
    """Everything a run produced: final state, history, profiler."""

    final_state: FlowState
    records: list[StepRecord]
    profiler: PhaseProfiler
    gas: GasProperties

    @property
    def num_steps(self) -> int:
        return len(self.records)

    def kinetic_energy_series(self) -> np.ndarray:
        """``(num_steps, 2)`` array of (time, volume-averaged E_k)."""
        return np.array([(r.time, r.kinetic_energy) for r in self.records])

    def mass_drift(self) -> float:
        """Relative drift of total mass over the run (0 for exact
        conservation)."""
        if not self.records:
            raise SolverError("no steps recorded")
        first = self.records[0].total_mass
        last = self.records[-1].total_mass
        return abs(last - first) / abs(first)


def cfl_time_step(
    mesh, state: FlowState, gas: GasProperties, cfl: float = 0.5
) -> float:
    """CFL-stable step for ``state`` on ``mesh``.

    The one rule behind :meth:`Simulation.compute_dt` and the
    co-simulator's default step, so both pick the same ``dt`` bit for
    bit. The minimum GLL spacing is computed once per mesh
    (:meth:`~repro.mesh.hexmesh.HexMesh.derived`).
    """
    spacing = mesh.derived(
        "min_spacing", lambda: float(element_min_spacing(mesh).min())
    )
    wave = state.max_wave_speed(gas)
    nu = gas.viscosity / float(np.min(state.rho))
    return stable_time_step(spacing, wave, nu, cfl=cfl)


class Simulation:
    """One TGV (or custom initial state) simulation on a periodic mesh.

    ``backend`` selects the compute backend for the operator's hot
    kernels (name, :class:`~repro.backend.KernelBackend` instance, or
    ``None`` for the ``REPRO_BACKEND``/default selection); ``fusion``
    selects how much of the gather/scatter round-trip the diffusion and
    convection passes share (see
    :class:`~repro.solver.navier_stokes.NavierStokesOperator`);
    ``dtype`` selects the precision mode (``"float64"``, ``"float32"``,
    ``"mixed"``; ``None`` defers to ``REPRO_DTYPE``) — the whole RK step
    (stage states, derivatives, axpy accumulation, primitives) then runs
    under that policy. ``num_workers`` stays only so existing callers
    passing ``1`` keep working; any value but ``None``/``1`` raises.
    """

    @property
    def backend_name(self) -> str:
        """Name of the compute backend the operator resolved."""
        return self.operator.backend.name

    def __init__(
        self,
        mesh,
        case: TGVCase,
        tableau: ButcherTableau = RK4,
        profiler: PhaseProfiler | None = None,
        initial_state: FlowState | None = None,
        cfl: float = 0.5,
        fusion: str = "none",
        backend=None,
        num_workers: int | None = None,
        dtype=None,
    ) -> None:
        require_serial_workers(num_workers)
        self.case = case
        self.gas = case.gas()
        self.tableau = tableau
        self.cfl = cfl
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        with self.profiler.phase("non_rk"):
            self.operator = NavierStokesOperator(
                mesh,
                self.gas,
                profiler=self.profiler,
                fusion=fusion,
                backend=backend,
                dtype=dtype,
            )
            self.precision = self.operator.precision
            if initial_state is None:
                initial_state = taylor_green_initial(mesh.coords, case)
            initial_state.validate()
            self.state = initial_state
            self.time = 0.0
            # The RK-update pipelines the step executes: the
            # combination-only variant for the intermediate stages and
            # the full variant (axpy + RKU primitive update) for the
            # step's end. Their preallocated buffers — reused by every
            # step, the accelerator's on-chip staging analogue — are a
            # graph rewrite (bind_stage_buffers), not a bespoke path.
            shape = (NUM_CONSERVED, mesh.num_nodes)
            storage = self.precision.storage
            acc_dtype = self.precision.accumulate_for(storage)
            self._rk_buffers = {
                "increment": np.empty(shape, dtype=acc_dtype),
                "scratch": np.empty(shape, dtype=acc_dtype),
                "stage_state": np.empty(shape, dtype=storage),
                "primitives": np.empty(shape, dtype=storage),
            }
            bindings = {
                "stage_axpy": {
                    "acc": "increment",
                    "scratch": "scratch",
                    "out": "stage_state",
                },
                "store_state": {"out": "stage_state"},
            }
            self._rk_combine = bind_stage_buffers(
                rk_update_pipeline(primitives=False), bindings
            )
            self._rk_update = bind_stage_buffers(
                rk_update_pipeline(primitives=True),
                {
                    **bindings,
                    "update_primitives": {"out": "primitives"},
                    "store_primitives": {"out": "primitives"},
                },
            )
            self._rku_ctx = RKUpdateContext(
                gas=self.gas,
                buffers=self._rk_buffers,
                precision=self.precision,
            )

    # -- stepping -------------------------------------------------------------

    def compute_dt(self) -> float:
        """CFL-stable step for the current state (:func:`cfl_time_step`)."""
        return cfl_time_step(
            self.operator.mesh, self.state, self.gas, cfl=self.cfl
        )

    def _run_rk_update(
        self,
        pipeline,
        y: np.ndarray,
        derivs: list[np.ndarray],
        coeffs,
        dt: float,
    ) -> np.ndarray:
        """Execute one RK-update pipeline instance on the whole mesh.

        Binds the step's external payloads and returns the combined
        (stage or final) state, which lives in the preallocated
        ``stage_state`` buffer when the combination is non-trivial.
        """
        outputs = run_pipeline(
            pipeline,
            self._rku_ctx,
            {"state": y, "derivs": derivs, "coeffs": coeffs, "dt": dt},
            profiler=self.profiler,
        )
        return outputs["updated_state"]

    def step(self, dt: float) -> None:
        """Advance one RK step of size ``dt`` (the paper's RKL + RKU).

        Each half runs its pipeline IR: the spatial operator evaluates
        the stage derivatives through the Navier-Stokes pipeline, and
        the stage combinations plus the final RKU primitive update
        (``rho, u, T, E, p``) run the :mod:`repro.pipeline.rk_update`
        instances — writing into the buffers the
        ``bind_stage_buffers`` rewrite preallocated at construction, so
        the steady-state loop performs no per-stage allocations beyond
        the residual evaluations themselves.
        """
        if dt <= 0:
            raise SolverError(f"dt must be positive, got {dt}")
        tableau = self.tableau
        # The step runs in the policy's storage dtype; FlowState itself
        # stays float64 internally (an f32 -> f64 -> f32 round trip is
        # exact, so the streamed device state is reproduced bitwise).
        y = self.state.as_stacked().astype(
            self.precision.storage, copy=False
        )
        stage_derivs: list[np.ndarray] = []
        for stage in range(tableau.num_stages):
            y_stage = y
            if stage > 0 and np.any(tableau.a[stage, :stage] != 0.0):
                y_stage = self._run_rk_update(
                    self._rk_combine,
                    y,
                    stage_derivs,
                    tableau.a[stage, :stage],
                    dt,
                )
            # The operator attributes its own rk.diffusion / rk.convection.
            stage_derivs.append(self.operator.residual(y_stage))
        # RKU: the final combination and the primitive re-derivation
        # (the values the paper's RKU kernel writes back each step, left
        # in the "primitives" buffer as u, v, w, T, p).
        updated = self._run_rk_update(
            self._rk_update, y, stage_derivs, tableau.b, dt
        )
        self.state = FlowState.from_stacked(updated)
        self.time += dt

    def run(
        self,
        num_steps: int,
        dt: float | None = None,
        validate_every: int = 0,
    ) -> SimulationResult:
        """Run ``num_steps`` RK steps; ``dt=None`` uses the CFL controller.

        ``validate_every > 0`` checks state physicality every that many
        steps (costs time, attributed to Non-RK as in the paper).
        """
        if num_steps < 1:
            raise SolverError("num_steps must be >= 1")
        records: list[StepRecord] = []
        for step_idx in range(num_steps):
            with self.profiler.phase("non_rk"):
                step_dt = dt if dt is not None else self.compute_dt()
            self.step(step_dt)
            with self.profiler.phase("non_rk"):
                if validate_every and (step_idx + 1) % validate_every == 0:
                    self.state.validate()
                records.append(self._record(step_idx, step_dt))
        return SimulationResult(
            final_state=self.state,
            records=records,
            profiler=self.profiler,
            gas=self.gas,
        )

    def _record(self, step_idx: int, dt: float) -> StepRecord:
        mass_w = self.operator.mass
        speed = np.sqrt(np.sum(self.state.velocity() ** 2, axis=0))
        return StepRecord(
            step=step_idx + 1,
            time=self.time,
            dt=dt,
            kinetic_energy=kinetic_energy(self.state, mass_w),
            total_mass=total_mass(self.state, mass_w),
            max_velocity=float(speed.max()),
        )
