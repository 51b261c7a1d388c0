"""Tiered evaluation of design points: closed form, exact, co-simulated.

The exploration prices the *entire* grid with the closed-form
accelerator models (microseconds per point), promotes the Pareto
survivors to the exact vectorized schedule solve
(:func:`repro.accel.cosim.exact_rkl_stage_cycles` — the very graphs a
co-simulation would run, without payloads), and spends full
payload-carrying co-simulation (:func:`repro.accel.cosim.
cosimulate_rk_stage`) only on the front's finalists. Each rung is the
cheaper rung's auditor: promoted points must agree with the tier below
within the parity bounds the co-simulation suite already established
(closed form vs schedule <2%, trace vs closed form <5%), so a modeling
regression surfaces as a tier-agreement violation, not a silently wrong
front.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace

from ..accel.cosim import (
    analytic_block_cycles,
    analytic_rku_step_cycles,
    cosimulate_rk_stage,
    exact_rkl_stage_cycles,
    exact_rku_step_cycles,
)
from ..accel.designs import PROPOSED_OPTIONS, AcceleratorDesign
from ..accel.designs import custom_design, priced
from ..accel.multi_cu import nodes_per_compute_unit
from ..backend.registry import require_serial_workers
from ..errors import DSEError
from ..fpga.device import device_by_name
from ..mesh.hexmesh import HexMesh
from ..mesh.partition import largest_part_size
from ..pipeline.navier_stokes import navier_stokes_pipeline
from ..timeint.butcher import RK4
from .campaign import DesignPoint

#: Evaluation tiers, cheapest first.
TIERS = ("closed-form", "exact", "cosim")

#: Maximum relative step-cycle disagreement a promoted point may show
#: against the tier below — the established parity bounds of the
#: co-simulation suite (closed form vs schedule engine, trace vs closed
#: form).
TIER_AGREEMENT_BOUNDS = {"exact": 0.02, "cosim": 0.05}

#: Designs are immutable once elaborated and depend only on the
#: polynomial order and target device, so one build serves every mesh
#: size, CU count, and block size sharing them. Module level (not
#: per-campaign) so a fork-started process pool inherits the parent's
#: pre-warmed builds.
_DESIGN_CACHE: dict[tuple[int, str], AcceleratorDesign] = {}


def design_for(point: DesignPoint) -> AcceleratorDesign:
    """The elaborated design a point prices, built once per (order, device).

    The architectural switches are the paper's proposed design; the
    sweep varies the workload-facing knobs (order via the kernel models,
    CU count and clock via the floorplan) around it.
    """
    key = (point.polynomial_order, point.device)
    if key not in _DESIGN_CACHE:
        options = replace(
            PROPOSED_OPTIONS,
            name=f"dse-p{point.polynomial_order}",
            polynomial_order=point.polynomial_order,
        )
        _DESIGN_CACHE[key] = custom_design(
            options, device_by_name(point.device)
        )
    return _DESIGN_CACHE[key]


#: Cosim finalists' meshes, one per ``(case, elements, order)``, so the
#: mesh's derived data (geometry, mass, spacing) and the co-simulator's
#: step plan serve every finalist on it. Bounded: the oldest of
#: :data:`_MAX_SHARED_MESHES` goes first.
_SHARED_MESHES: dict[tuple[str, int, int], HexMesh] = {}
_SHARED_MESHES_LOCK = threading.Lock()
_MAX_SHARED_MESHES = 4


def _shared_mesh(point: DesignPoint) -> HexMesh:
    """:meth:`DesignPoint.mesh`, built once per process for every point
    on the same case, element count and order. Its arrays are locked
    read-only, since the points share it."""
    key = (point.case, point.elements_per_direction, point.polynomial_order)
    with _SHARED_MESHES_LOCK:
        mesh = _SHARED_MESHES.get(key)
        if mesh is None:
            mesh = point.mesh()
            for array in (mesh.coords, mesh.connectivity, mesh.corner_coords):
                array.flags.writeable = False
            if len(_SHARED_MESHES) >= _MAX_SHARED_MESHES:
                del _SHARED_MESHES[next(iter(_SHARED_MESHES))]
            _SHARED_MESHES[key] = mesh
    return mesh


def prewarm_designs(points) -> None:
    """Build every design the points need, in the calling process.

    Called by the executor just before the shared cosim pool forks:
    the workers inherit the populated :data:`_DESIGN_CACHE`, so no
    worker pays these elaborations again. A reused pool's workers build
    any other design on demand and keep it.
    """
    for point in points:
        design_for(point)


@dataclass(frozen=True)
class PointResult:
    """One tier's pricing of one design point.

    ``step_cycles`` is the per-RK-step total (stage cycles times the RK4
    stage count, plus the RKU update) — the timing objective of the
    Pareto front; ``run_seconds`` scales it to the point's step count at
    the floorplan's achieved clock. Resource components are the
    post-P&R totals of the N-CU configuration (N RKL instances, one
    RKU, the static shell).
    """

    point: DesignPoint
    tier: str
    step_cycles: float
    rkl_stage_cycles: float
    rku_step_cycles: float
    clock_mhz: float
    step_seconds: float
    run_seconds: float
    num_nodes: int
    num_elements: int
    lut: float
    ff: float
    bram36: float
    uram: float
    dsp: float
    #: Max-norm relative state error of the co-simulated step against
    #: the functional solver (cosim tier only).
    state_max_rel_err: float | None = None
    #: ``"ok"`` for a priced point; ``"failed"`` for a quarantined one
    #: (its worker died repeatedly, its batch hit its deadline too many
    #: times, or its evaluation raised) — the campaign's casualty list
    #: is made of these instead of an unhandled exception.
    status: str = "ok"
    #: The quarantine reason when ``status != "ok"``.
    error: str | None = None
    #: True when this result was served by the content-addressed cache.
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """True for a successfully priced point."""
        return self.status == "ok"

    @classmethod
    def failed(
        cls, point: DesignPoint, tier: str, error: str
    ) -> "PointResult":
        """A quarantined casualty: zeroed numerics, the failure reason
        in ``error``, and ``status="failed"``."""
        timing, resources = (0.0,) * 6, (0.0,) * 5
        columns = (
            tier, *timing, point.num_nodes, point.num_elements, *resources,
            None, "failed", error,
        )
        return cls.filled(point, columns)

    @classmethod
    def filled(
        cls, point: DesignPoint, columns, from_cache: bool = False
    ) -> "PointResult":
        """The result of a point and its :data:`RESULT_FIELDS` columns,
        filled straight into its attribute dict in field order (the
        class checks nothing, and ``__init__`` is ~3x slower)."""
        result = object.__new__(cls)
        attributes = result.__dict__
        attributes["point"] = point
        attributes.update(zip(RESULT_FIELDS, columns))
        attributes["from_cache"] = from_cache
        return result

    def to_dict(self) -> dict:
        """JSON-ready form: every field in declaration order but
        ``from_cache``, the point last as its
        :meth:`~repro.dse.campaign.DesignPoint.spec`."""
        out = {name: getattr(self, name) for name in RESULT_FIELDS}
        out["point"] = self.point.spec()
        return out


#: The :class:`PointResult` fields a result carries besides its point
#: and provenance, in declaration order — the column order of
#: :meth:`PointResult.to_dict` and of the cache's record rows.
RESULT_FIELDS = tuple(
    field.name
    for field in fields(PointResult)
    if field.name not in ("point", "from_cache")
)


def _columns(
    design: AcceleratorDesign, tier: str, num_nodes: int, num_elements: int,
    num_cus: int, num_steps: int, rkl_stage: float, rku_step: float,
    state_err: float | None = None,
) -> tuple:
    """One ok pricing's columns, in :data:`RESULT_FIELDS` order: the
    step arithmetic of every tier."""
    clock = design.clock_for(num_cus)
    total = design.resources_for(num_cus)
    step_cycles = rkl_stage * RK4.num_stages + rku_step
    step_seconds = step_cycles / (clock * 1e6)
    return (
        tier, float(step_cycles), float(rkl_stage), float(rku_step), clock,
        step_seconds, step_seconds * num_steps, num_nodes, num_elements,
        total.lut, total.ff, total.bram36, total.uram, total.dsp,
        state_err, "ok", None,
    )


def _result(
    point: DesignPoint, tier: str, rkl_stage: float, rku_step: float,
    state_err: float | None = None,
) -> PointResult:
    columns = _columns(
        design_for(point), tier, point.num_nodes, point.num_elements,
        point.num_cus, point.num_steps, rkl_stage, rku_step, state_err,
    )
    return PointResult.filled(point, columns)


@priced
def _closed_form_columns(
    design: AcceleratorDesign, num_nodes: int, num_elements: int,
    num_cus: int, block_size: int, num_steps: int,
) -> tuple:
    """The closed-form tier's columns: a function of exactly these
    inputs, so one price-table entry serves every point sharing them
    (fusion, partition and precision do not enter the closed form)."""
    # The law grows with the element count, so the largest shard is
    # the slowest compute unit.
    rkl_stage = analytic_block_cycles(
        design,
        nodes_per_compute_unit(num_nodes, num_cus),
        largest_part_size(num_elements, num_cus),
        block_size,
    )
    return _columns(
        design, "closed-form", num_nodes, num_elements, num_cus, num_steps,
        rkl_stage, analytic_rku_step_cycles(design, num_nodes),
    )


def evaluate_closed_form(point: DesignPoint) -> PointResult:
    """Tier 1: the analytic block-token law, microseconds per point.

    RKL stage cycles are
    :func:`~repro.accel.cosim.analytic_block_cycles` of the point's
    largest element shard (priced from counts, no block arrays); RKU is
    the streamed chain's closed form
    (:func:`~repro.accel.cosim.analytic_rku_step_cycles`). The fusion
    axis does not move this tier (role-group sums are fusion-invariant
    by construction) — asserted as a property by the tier tests.
    """
    columns = _closed_form_columns(
        design_for(point), point.num_nodes, point.num_elements,
        point.num_cus, point.block_size, point.num_steps,
    )
    return PointResult.filled(point, columns)


def evaluate_exact(point: DesignPoint) -> PointResult:
    """Tier 2: the exact vectorized schedule solve, no payloads.

    The same lowered graphs a co-simulation would run (per-CU chains of
    the point's fusion mode, merged under one clock), priced by the
    schedule engine alone.
    """
    design = design_for(point)
    rkl_stage = exact_rkl_stage_cycles(
        design,
        point.num_nodes,
        point.num_elements,
        block_size=point.block_size,
        num_cus=point.num_cus,
        partitions=point.element_partitions(),
        pipeline=navier_stokes_pipeline(point.fusion),
    )
    return _result(
        point,
        "exact",
        rkl_stage,
        exact_rku_step_cycles(design, point.num_nodes),
    )


def evaluate_cosim(
    point: DesignPoint,
    *,
    backend: str | None = None,
    verify: bool = True,
) -> PointResult:
    """Tier 3: full payload-carrying co-simulation of the RK step(s).

    Streams the point's actual mesh through the lowered graphs
    (:func:`~repro.accel.cosim.cosimulate_rk_stage`): the stage cycles
    are measured windows of a run that computed the real physics, and
    the recorded ``state_max_rel_err`` proves it against the functional
    solver. The point's ``precision`` axis lands here: the streamed
    payloads run under that mode (the timing tiers are
    precision-invariant — cycles price token counts, not dtypes — so
    only this tier's recorded state error moves with it).

    ``backend`` selects the compute backend the streamed payload
    actions run on (``None`` defers to ``REPRO_BACKEND``/default) —
    cycles are backend-invariant, only wall-clock moves. ``verify``
    controls the redundant functional checking solve; with ``False``
    the result's ``state_max_rel_err`` is ``None``
    (:func:`run_campaign <repro.dse.executor.run_campaign>` passes the
    campaign's ``cosim_verify``, off by default).
    """
    design = design_for(point)
    mesh = _shared_mesh(point)
    case = initial = None
    if point.case == "channel":
        from ..physics.channel import decaying_shear_initial
        from ..physics.taylor_green import TGVCase

        case = TGVCase(mach=0.05, reynolds=100.0)
        initial = decaying_shear_initial(mesh.coords, case)
    result = cosimulate_rk_stage(
        design,
        mesh,
        backend=backend,
        case=case,
        initial_state=initial,
        block_size=point.block_size,
        partitions=point.element_partitions(),
        num_steps=point.num_steps,
        dtype=point.precision,
        verify=verify,
    )
    return _result(
        point,
        "cosim",
        result.rkl_stage_cycles,
        result.rku_simulated_cycles,
        state_err=result.state_max_rel_err,
    )


_EVALUATORS = {
    "closed-form": evaluate_closed_form,
    "exact": evaluate_exact,
    "cosim": evaluate_cosim,
}


def price_feasible(
    point: DesignPoint,
    tier: str,
    *,
    backend: str | None = None,
    verify: bool = True,
) -> PointResult:
    """Price one point already known to be feasible at one tier.

    The campaign path: :meth:`CampaignSpec.expand
    <repro.dse.campaign.CampaignSpec.expand>` has filtered every point a
    campaign prices, so the feasibility check is not repeated per point.
    Direct callers use :func:`evaluate_point`, which checks it.
    """
    try:
        evaluator = _EVALUATORS[tier]
    except KeyError:
        raise DSEError(
            f"unknown tier {tier!r}; tiers: {', '.join(TIERS)}"
        ) from None
    if tier == "cosim":
        return evaluator(point, backend=backend, verify=verify)
    return evaluator(point)


def evaluate_point(
    point: DesignPoint,
    tier: str,
    *,
    backend: str | None = None,
    num_workers: int | None = None,
    verify: bool = True,
) -> PointResult:
    """Price one point at one tier.

    ``backend`` / ``verify`` configure the cosim tier's payload
    execution (see :func:`evaluate_cosim`); the timing tiers ignore
    them — cycles price token counts, not kernels. ``num_workers`` is
    kept only so existing callers passing ``1`` keep working; any value
    but ``None``/``1`` raises :class:`~repro.errors.ConfigurationError`.

    Raises :class:`~repro.errors.DSEError` on an unknown tier or an
    infeasible point.
    """
    require_serial_workers(num_workers)
    reason = point.infeasibility()
    if reason is not None:
        raise DSEError(f"cannot evaluate infeasible point: {reason}")
    return price_feasible(point, tier, backend=backend, verify=verify)


def tier_agreement(a: PointResult, b: PointResult) -> float:
    """Relative step-cycle disagreement between two tiers' pricings."""
    return abs(a.step_cycles - b.step_cycles) / max(
        a.step_cycles, b.step_cycles
    )
