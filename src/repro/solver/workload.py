"""Analytic operation and memory-traffic characterization of the solver.

Both timing models — the Xeon roofline (:mod:`repro.cpu`) and the FPGA
dataflow accelerator (:mod:`repro.accel`) — consume the *same* workload
description derived here from the FEM algorithm, so the speedups the
benchmarks report emerge from architectural modeling of identical work,
never from inconsistent accounting.

Counting conventions
--------------------
- Counts are **per RK stage** unless stated otherwise; one time step runs
  ``tableau.num_stages`` stages plus the RK combination and RKU update.
- The per-node building blocks (:class:`OpCount` and friends) live in
  the dependency-leaf module :mod:`repro.opcount`, shared with the
  pipeline-IR per-stage derivation (:mod:`repro.pipeline.opcounts`);
  they are re-exported here for the established import paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SolverError
from ..mesh.hexmesh import elements_for_node_count
from ..timeint.butcher import RK4, ButcherTableau

# Re-exported building blocks (see repro.opcount for the definitions).
from ..opcount import (  # noqa: F401  (public re-exports)
    METRIC_VALUES_PER_ELEMENT_CONST,
    NUM_FIELDS,
    NUM_GRADIENT_FIELDS,
    NUM_VISCOUS_FIELDS,
    OpCount,
    euler_flux_per_node,
    gradient_per_node_per_field,
    load_element,
    primitives_per_node,
    store_element,
    tau_per_node,
    viscous_flux_per_node,
    weak_divergence_per_node_per_field,
)

# ---------------------------------------------------------------------------
# Per-element COMPUTE tasks (the paper's Fig. 1 / Fig. 3 stages)
# ---------------------------------------------------------------------------


def compute_convection_element(n1: int) -> OpCount:
    """COMPUTE-convection for one element (no DRAM traffic; on-chip)."""
    q = n1**3
    work = primitives_per_node().scaled(q)
    work = work + euler_flux_per_node().scaled(q)
    work = work + weak_divergence_per_node_per_field(n1).scaled(q * NUM_FIELDS)
    return work


def compute_diffusion_element(n1: int) -> OpCount:
    """COMPUTE-diffusion for one element: gradients, tau, viscous fluxes,
    weak divergences."""
    q = n1**3
    work = primitives_per_node().scaled(q)
    work = work + gradient_per_node_per_field(n1).scaled(q * NUM_GRADIENT_FIELDS)
    work = work + tau_per_node().scaled(q)
    work = work + viscous_flux_per_node().scaled(q)
    work = work + weak_divergence_per_node_per_field(n1).scaled(
        q * NUM_VISCOUS_FIELDS
    )
    return work


# ---------------------------------------------------------------------------
# Per-node global stages (mass inversion, RK combination, RKU update)
# ---------------------------------------------------------------------------


def mass_inversion_per_node() -> OpCount:
    """Divide the 5 assembled residuals by the lumped mass."""
    return OpCount(divs=NUM_FIELDS, dram_reads=NUM_FIELDS + 1, dram_writes=NUM_FIELDS)


def _rk_combination_rows(tableau: ButcherTableau) -> list:
    """The nonzero stage-combination rows one step applies.

    One row per intermediate stage whose tableau coefficients are not
    all zero, plus the final ``b`` combination — each becomes one
    application of the ``rk-update[combine]`` pipeline.
    """
    import numpy as np

    rows = [
        tableau.a[stage, :stage]
        for stage in range(1, tableau.num_stages)
        if np.any(tableau.a[stage, :stage] != 0.0)
    ]
    rows.append(tableau.b)
    return rows


def rk_axpy_per_node(tableau: ButcherTableau) -> OpCount:
    """RK stage combinations for one full step at one node.

    Derived from the :func:`~repro.pipeline.rk_update.rk_update_pipeline`
    IR: every combination row the tableau applies is one pass of the
    combination-only pipeline, whose stage counts
    (:func:`~repro.pipeline.opcounts.stage_op_count`) charge one fused
    multiply-add per field per nonzero entry, stream each referenced
    derivative in, and stream the combined state in and out.
    """
    import numpy as np

    from ..pipeline.opcounts import stage_op_count
    from ..pipeline.rk_update import rk_update_pipeline

    total = OpCount()
    for row in _rk_combination_rows(tableau):
        pipeline = rk_update_pipeline(
            primitives=False, num_terms=int(np.count_nonzero(row))
        )
        for stage in pipeline.topological_order():
            total = total + stage_op_count(stage, 1)
    return total


def rku_update_per_node() -> OpCount:
    """The RKU kernel's primitive update ``rho, u, T, E, p`` at one node.

    Derived from the primitive-update slice of the
    :func:`~repro.pipeline.rk_update.rk_update_pipeline` IR: the
    ``update_primitives`` arithmetic (``u = m / rho``, kinetic, internal
    energy, T, p) plus the node's conserved-set read and primitive-set
    write — so the accelerator's RKU kernel model
    (:mod:`repro.accel.kernels`) prices exactly the stages the solver
    executes.
    """
    from ..pipeline.opcounts import stage_op_count
    from ..pipeline.rk_update import rk_update_pipeline

    pipeline = rk_update_pipeline(primitives=True)
    total = OpCount()
    for name in ("load_state", "update_primitives", "store_primitives"):
        total = total + stage_op_count(pipeline.stage(name), 1)
    return total


def non_rk_per_node() -> OpCount:
    """Host-side work outside the RK method, per node per time step.

    Models the paper's "Non-RK" 23.63 %: CFL signal speed (1 sqrt + a few
    ops), integral diagnostics (one read pass over the conserved set),
    and solution bookkeeping/output staging (read + format + write of the
    primitive and conserved sets — 5 reads of each, 3 staged writes of
    the primitive set).
    """
    return OpCount(
        adds=6,
        muls=8,
        divs=1,
        specials=1,
        dram_reads=5 * NUM_FIELDS,
        dram_writes=3 * NUM_FIELDS,
    )


# ---------------------------------------------------------------------------
# Aggregated workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseWork:
    """One Fig. 2 phase over the full mesh for one time step."""

    name: str
    ops: OpCount

    def scaled(self, factor: float) -> "PhaseWork":
        return PhaseWork(name=self.name, ops=self.ops.scaled(factor))


@dataclass(frozen=True)
class RKWorkload:
    """Per-time-step workload of the whole solver on a given mesh.

    Attributes
    ----------
    num_nodes / num_elements:
        Mesh size the counts are scaled to.
    polynomial_order:
        FEM order ``p``.
    phases:
        Mapping of phase name (``rk_diffusion``, ``rk_convection``,
        ``rk_other``, ``non_rk``) to :class:`PhaseWork` for one time step.
    """

    num_nodes: int
    num_elements: int
    polynomial_order: int
    num_stages: int
    phases: dict[str, PhaseWork] = field(default_factory=dict)


def rk_stage_workload(
    num_elements: int, polynomial_order: int, fusion: str = "none"
) -> dict[str, OpCount]:
    """Element-pass work for ONE RK stage, derived from the pipeline IR.

    The counts come from the per-stage op-count models of
    :mod:`repro.pipeline.opcounts` applied to the operator pipeline at
    the requested ``fusion`` level, aggregated by profiler phase — so
    op-accounting prices exactly the stage graph the solver executes and
    the co-simulator streams. With the default ``fusion="none"`` each
    pass performs its own LOAD and STORE (paper Fig. 1: both branches
    begin with LOAD Node and end with STORE Node Contribution), yielding
    the classic ``rk_convection`` / ``rk_diffusion`` split; the fused
    rewrite yields a single ``rk_fused`` phase with the shared-stage
    savings visible in the totals.
    """
    from ..pipeline import navier_stokes_pipeline, pipeline_phase_op_counts

    per_element = pipeline_phase_op_counts(
        navier_stokes_pipeline(fusion), polynomial_order
    )
    return {
        phase.replace(".", "_"): ops.scaled(num_elements)
        for phase, ops in per_element.items()
    }


def full_step_workload(
    num_nodes: int,
    num_elements: int,
    polynomial_order: int,
    tableau: ButcherTableau = RK4,
) -> RKWorkload:
    """Workload of one complete time step on the given mesh."""
    if num_nodes < 1 or num_elements < 1:
        raise SolverError("mesh sizes must be positive")
    stages = tableau.num_stages
    stage = rk_stage_workload(num_elements, polynomial_order)
    rk_other = (
        mass_inversion_per_node().scaled(num_nodes * stages)
        + rk_axpy_per_node(tableau).scaled(num_nodes)
        + rku_update_per_node().scaled(num_nodes)
    )
    phases = {
        "rk_diffusion": PhaseWork(
            "rk_diffusion", stage["rk_diffusion"].scaled(stages)
        ),
        "rk_convection": PhaseWork(
            "rk_convection", stage["rk_convection"].scaled(stages)
        ),
        "rk_other": PhaseWork("rk_other", rk_other),
        "non_rk": PhaseWork("non_rk", non_rk_per_node().scaled(num_nodes)),
    }
    return RKWorkload(
        num_nodes=num_nodes,
        num_elements=num_elements,
        polynomial_order=polynomial_order,
        num_stages=stages,
        phases=phases,
    )


def workload_for_node_count(
    num_nodes: int, polynomial_order: int = 2, tableau: ButcherTableau = RK4
) -> RKWorkload:
    """Workload for a periodic box mesh with ~``num_nodes`` nodes.

    On the periodic TGV mesh of order ``p``, elements number
    ``num_nodes / p**3`` (each element contributes ``p**3`` unique
    nodes); the arithmetic is shared with the accelerator timing models
    via :func:`repro.mesh.hexmesh.elements_for_node_count`.
    """
    if num_nodes < 1:
        raise SolverError("num_nodes must be >= 1")
    num_elements = elements_for_node_count(num_nodes, polynomial_order)
    return full_step_workload(num_nodes, num_elements, polynomial_order, tableau)
