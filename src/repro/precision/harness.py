"""Error-growth harness: what each precision mode costs in accuracy.

The paper validates the accelerator's single-precision datapath by
checking that the streamed physics stays within floating-point noise of
the reference solver. This harness quantifies that claim on the one
case with an analytic answer — the 2D Taylor-Green vortex
(:func:`repro.physics.taylor_green.taylor_green_2d_exact`) — by
stepping the *same* mesh and time step twice:

- an **oracle** :class:`~repro.solver.simulation.Simulation` in
  ``float64``, and
- a **test** simulation in the requested mode (``float32`` or
  ``mixed``; ``float64`` degenerates to a self-check).

Both runs execute the real production step (pipeline IR, fusion,
backend kernels) — nothing is re-implemented here. Two error streams
come out:

- **per step**: velocity error of each run against the analytic decay,
  plus the test run's conserved-state error against the oracle — the
  numbers that show whether f32 error *grows* or stays at the rounding
  floor;
- **per stage**: Linf relative difference between the stage derivative
  the test run computed and the one the oracle computed, captured by
  wrapping ``operator.residual`` during the real step (so the record
  reflects the realized derivative stream, divergence included).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .modes import PrecisionPolicy

#: Relative floor used when a reference field is identically zero.
_TINY = np.finfo(np.float64).tiny


def _rel_linf(test: np.ndarray, reference: np.ndarray) -> float:
    """Linf norm of ``test - reference`` relative to Linf of reference."""
    test = np.asarray(test, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(test - reference))) / max(scale, _TINY)


@dataclass(frozen=True)
class StageErrorRecord:
    """Derivative divergence at one RK stage of one step.

    ``deriv_rel_err`` is the Linf relative difference between the stage
    derivative the test-mode run produced and the oracle's, each
    evaluated on its *own* stage state — realized divergence, not a
    frozen-state kernel comparison.
    """

    step: int
    stage: int
    deriv_rel_err: float


@dataclass(frozen=True)
class StepErrorRecord:
    """Error state after one completed RK step.

    ``error_vs_analytic`` / ``oracle_error_vs_analytic`` are the Linf
    velocity errors of the test and oracle runs against the exact 2D
    Taylor-Green decay, relative to the vortex velocity scale ``V0``;
    ``error_vs_oracle`` is the Linf relative error of the test run's
    conserved state against the oracle's.
    """

    step: int
    time: float
    error_vs_analytic: float
    oracle_error_vs_analytic: float
    error_vs_oracle: float


@dataclass(frozen=True)
class ErrorGrowthReport:
    """Per-stage and per-step error growth of one precision mode."""

    mode: str
    polynomial_order: int
    elements_per_direction: int
    num_steps: int
    dt: float
    backend: str
    stages: tuple[StageErrorRecord, ...]
    steps: tuple[StepErrorRecord, ...]

    @property
    def final_error_vs_analytic(self) -> float:
        """Test-mode velocity error vs the analytic decay at the end."""
        return self.steps[-1].error_vs_analytic

    @property
    def final_oracle_error_vs_analytic(self) -> float:
        """Oracle (f64) velocity error vs the analytic decay at the end."""
        return self.steps[-1].oracle_error_vs_analytic

    @property
    def final_error_vs_oracle(self) -> float:
        """Test-mode conserved-state error vs the f64 oracle at the end."""
        return self.steps[-1].error_vs_oracle

    @property
    def max_stage_error(self) -> float:
        """Largest per-stage derivative divergence seen over the run."""
        return max(r.deriv_rel_err for r in self.stages)

    @property
    def precision_penalty(self) -> float:
        """How much worse than the oracle the mode tracks the analytic
        solution (``1.0`` means the discretization error dominates and
        the reduced precision is free)."""
        return self.final_error_vs_analytic / max(
            self.final_oracle_error_vs_analytic, _TINY
        )

    def as_dict(self) -> dict:
        """JSON-serializable view (consumed by the benchmark artifact)."""
        return {
            "mode": self.mode,
            "polynomial_order": self.polynomial_order,
            "elements_per_direction": self.elements_per_direction,
            "num_steps": self.num_steps,
            "dt": self.dt,
            "backend": self.backend,
            "final_error_vs_analytic": self.final_error_vs_analytic,
            "final_oracle_error_vs_analytic": (
                self.final_oracle_error_vs_analytic
            ),
            "final_error_vs_oracle": self.final_error_vs_oracle,
            "max_stage_error": self.max_stage_error,
            "per_step_error_vs_oracle": [
                r.error_vs_oracle for r in self.steps
            ],
            "per_stage_deriv_rel_err": [
                r.deriv_rel_err for r in self.stages
            ],
        }

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"error growth: mode={self.mode} p={self.polynomial_order} "
            f"mesh={self.elements_per_direction}^3 steps={self.num_steps} "
            f"dt={self.dt:.3e} backend={self.backend}",
        ]
        for rec in self.steps:
            stage_errs = " ".join(
                f"{s.deriv_rel_err:.2e}"
                for s in self.stages
                if s.step == rec.step
            )
            lines.append(
                f"  step {rec.step}: vs-analytic {rec.error_vs_analytic:.3e}"
                f" (oracle {rec.oracle_error_vs_analytic:.3e})"
                f" vs-oracle {rec.error_vs_oracle:.3e}"
                f" | stage derivs {stage_errs}"
            )
        lines.append(
            f"  final: penalty x{self.precision_penalty:.2f} over oracle, "
            f"max stage divergence {self.max_stage_error:.3e}"
        )
        return "\n".join(lines)


def _recording_residual(operator, sink: list) -> None:
    """Wrap ``operator.residual`` to append each derivative to ``sink``.

    The wrapper keeps the return value untouched, so the simulation step
    is bitwise what it would have been without the recorder.
    """
    original = operator.residual

    def wrapped(y):
        deriv = original(y)
        sink.append(np.array(deriv, dtype=np.float64, copy=True))
        return deriv

    operator.residual = wrapped


def error_growth_report(
    polynomial_order: int = 3,
    elements_per_direction: int = 2,
    num_steps: int = 4,
    dtype: str = "float32",
    backend=None,
    num_workers: int | None = None,
    case=None,
    dt: float | None = None,
    fusion: str = "none",
) -> ErrorGrowthReport:
    """Step TGV in ``dtype`` and in float64, reporting error growth.

    Builds two :class:`~repro.solver.simulation.Simulation` instances on
    the same periodic mesh from the same 2D Taylor-Green initial state —
    one in the requested mode, one float64 — and advances both with the
    same fixed ``dt`` (the oracle's CFL step when not given). Every
    other knob (``backend``, ``fusion``, ``num_workers``) is shared so
    precision is the only difference.
    """
    from ..mesh.hexmesh import periodic_box_mesh
    from ..physics.taylor_green import (
        DEFAULT_TGV,
        taylor_green_2d_exact,
        taylor_green_2d_initial,
    )
    from ..solver.simulation import Simulation

    if num_steps < 1:
        raise ConfigurationError(
            f"num_steps must be >= 1, got {num_steps}"
        )
    mode = PrecisionPolicy.resolve(dtype).mode
    if case is None:
        case = DEFAULT_TGV
    mesh = periodic_box_mesh(elements_per_direction, polynomial_order)

    def build(run_dtype: str) -> Simulation:
        return Simulation(
            mesh,
            case,
            initial_state=taylor_green_2d_initial(mesh.coords, case),
            backend=backend,
            num_workers=num_workers,
            fusion=fusion,
            dtype=run_dtype,
        )

    oracle = build("float64")
    test = build(mode)
    if dt is None:
        dt = oracle.compute_dt()

    oracle_derivs: list[np.ndarray] = []
    test_derivs: list[np.ndarray] = []
    _recording_residual(oracle.operator, oracle_derivs)
    _recording_residual(test.operator, test_derivs)

    velocity_scale = float(case.velocity)
    stage_records: list[StageErrorRecord] = []
    step_records: list[StepErrorRecord] = []
    for step in range(1, num_steps + 1):
        oracle_derivs.clear()
        test_derivs.clear()
        oracle.step(dt)
        test.step(dt)
        for stage, (d_test, d_oracle) in enumerate(
            zip(test_derivs, oracle_derivs)
        ):
            stage_records.append(
                StageErrorRecord(
                    step=step,
                    stage=stage,
                    deriv_rel_err=_rel_linf(d_test, d_oracle),
                )
            )
        exact_velocity, _ = taylor_green_2d_exact(
            mesh.coords, test.time, case
        )
        err_test = float(
            np.max(np.abs(test.state.velocity() - exact_velocity))
        )
        err_oracle = float(
            np.max(np.abs(oracle.state.velocity() - exact_velocity))
        )
        step_records.append(
            StepErrorRecord(
                step=step,
                time=test.time,
                error_vs_analytic=err_test / velocity_scale,
                oracle_error_vs_analytic=err_oracle / velocity_scale,
                error_vs_oracle=_rel_linf(
                    test.state.as_stacked(), oracle.state.as_stacked()
                ),
            )
        )
    return ErrorGrowthReport(
        mode=mode,
        polynomial_order=polynomial_order,
        elements_per_direction=elements_per_direction,
        num_steps=num_steps,
        dt=float(dt),
        backend=test.backend_name,
        stages=tuple(stage_records),
        steps=tuple(step_records),
    )
