"""Declarative design-space campaigns: points, axes, and expansion.

A :class:`DesignPoint` is one configuration of every architectural and
workload knob the exploration sweeps — polynomial order, mesh size,
streaming block size, compute-unit count, target device, operator-fusion
mode, element-partition strategy, step count, and flow case. A
:class:`CampaignSpec` names the swept axes over a base point and expands
to the full cross-product, separating feasible points from the ones the
device or mesh cannot realize (more CUs than memory-attached SLRs, more
CUs than elements, a periodic mesh below the two-node seam minimum).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace

from ..errors import ConfigurationError, DSEError
from ..fpga.device import DEVICE_REGISTRY
from ..mesh.partition import PARTITIONS, partition_elements
from ..pipeline.navier_stokes import FUSIONS
from ..precision import resolve_dtype

#: Flow cases a point can be priced on: the Taylor-Green vortex on the
#: triply periodic box, and the wall-bounded decaying shear flow on the
#: channel mesh.
CASES = ("tgv", "channel")


@dataclass(frozen=True)
class DesignPoint:
    """One coordinate of the design space.

    Attributes
    ----------
    polynomial_order:
        GLL order of the priced element (the paper evaluates 2).
    elements_per_direction:
        Mesh extent per direction; the mesh has
        ``elements_per_direction ** 3`` hex elements.
    block_size:
        Elements per streamed token.
    num_cus:
        RKL compute units the element stream shards over.
    device:
        Device-axis name (:data:`repro.fpga.device.DEVICE_REGISTRY`):
        ``"u200"`` (paper board, 2 memory-attached SLRs) or ``"hbm"``
        (HBM-class, 4).
    fusion:
        Operator-pipeline fusion mode
        (:data:`repro.pipeline.navier_stokes.FUSIONS`).
    partition:
        Element-sharding strategy (:data:`PARTITIONS`).
    num_steps:
        RK time steps of the priced run.
    case:
        Flow case (:data:`CASES`) — fixes periodicity and hence the
        node count of the mesh.
    precision:
        Precision mode of the priced run
        (:data:`repro.precision.DTYPE_MODES`): ``"float64"`` oracle,
        ``"float32"`` device-faithful, or ``"mixed"``
        f32-stream/f64-accumulate. Aliases (``f32``, ``fp64``, ...)
        canonicalize at construction so cache keys stay stable.
    """

    polynomial_order: int = 2
    elements_per_direction: int = 2
    block_size: int = 1
    num_cus: int = 1
    device: str = "u200"
    fusion: str = "full"
    partition: str = "balanced"
    num_steps: int = 1
    case: str = "tgv"
    precision: str = "float64"

    def __post_init__(self) -> None:
        for name in (
            "polynomial_order",
            "elements_per_direction",
            "block_size",
            "num_cus",
            "num_steps",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise DSEError(f"{name} must be an int >= 1, got {value!r}")
        if self.device not in DEVICE_REGISTRY:
            known = ", ".join(sorted(DEVICE_REGISTRY))
            raise DSEError(
                f"unknown device axis value {self.device!r}; known: {known}"
            )
        if self.fusion not in FUSIONS:
            raise DSEError(
                f"fusion must be one of {FUSIONS}, got {self.fusion!r}"
            )
        if self.partition not in PARTITIONS:
            raise DSEError(
                f"partition must be one of {PARTITIONS}, "
                f"got {self.partition!r}"
            )
        if self.case not in CASES:
            raise DSEError(f"case must be one of {CASES}, got {self.case!r}")
        try:
            canonical = resolve_dtype(self.precision)
        except ConfigurationError as exc:
            raise DSEError(str(exc)) from None
        object.__setattr__(self, "precision", canonical)

    # -- derived mesh arithmetic --------------------------------------------

    @property
    def num_elements(self) -> int:
        """Hex elements of the point's mesh."""
        return self.elements_per_direction**3

    @property
    def nodes_per_direction(self) -> int:
        return self.elements_per_direction * self.polynomial_order

    @property
    def num_nodes(self) -> int:
        """Unique mesh nodes: all seams wrap on the periodic box; the
        channel's wall direction keeps its two boundary planes."""
        n = self.nodes_per_direction
        if self.case == "tgv":
            return n**3
        return n * n * (n + 1)

    def spec(self) -> dict:
        """The point as a plain dict — the cache key and BENCH metadata
        form (field order fixed by the dataclass definition)."""
        return {name: getattr(self, name) for name in POINT_FIELDS}

    # -- feasibility ---------------------------------------------------------

    def infeasibility(self) -> str | None:
        """Why this point cannot be realized, or ``None`` if it can."""
        device = DEVICE_REGISTRY[self.device]
        limit = device.num_ddr_attached_slrs
        if self.num_cus > limit:
            return (
                f"{self.num_cus} CUs exceed the {limit} memory-attached "
                f"SLRs of {device.name}"
            )
        if self.num_cus > self.num_elements:
            return (
                f"{self.num_cus} CUs need at least one element each; mesh "
                f"has {self.num_elements}"
            )
        if self.nodes_per_direction < 2:
            return (
                "periodic directions need >= 2 nodes per direction "
                f"(got {self.nodes_per_direction})"
            )
        return None

    def element_partitions(self) -> list:
        """Element shards of this point's strategy, one per CU
        (:func:`~repro.mesh.partition.partition_elements`)."""
        return partition_elements(
            self.num_elements, self.num_cus, self.partition
        )

    def mesh(self):
        """Build the point's mesh (TGV periodic box or channel)."""
        from ..mesh.hexmesh import channel_mesh, periodic_box_mesh

        build = periodic_box_mesh if self.case == "tgv" else channel_mesh
        return build(self.elements_per_direction, self.polynomial_order)


#: The :class:`DesignPoint` fields in declaration order — the key order
#: of :meth:`DesignPoint.spec` and the column order of a point in the
#: cache's record rows.
POINT_FIELDS = tuple(field.name for field in fields(DesignPoint))


@dataclass(frozen=True)
class CampaignSpec:
    """A named sweep: axes of values crossed over a base point.

    Attributes
    ----------
    name:
        Campaign identifier (lands in the BENCH artifact).
    axes:
        ``((field_name, (values...)), ...)`` — each field must be a
        :class:`DesignPoint` field; the cross-product is expanded in
        this axis order (last axis fastest), so expansion order is
        deterministic.
    base:
        The point providing every un-swept field.
    max_survivors:
        Pareto-front candidates promoted to the exact tier.
    max_cosim:
        Exact-tier survivors promoted to full co-simulation.
    backend:
        Compute backend for the cosim tier's streamed payloads
        (``None`` defers to ``REPRO_BACKEND``, then the default). The
        executor resolves it once
        (:func:`repro.backend.resolve_backend_name`) and passes it
        explicitly to every finalist evaluation, so the payload
        ``_many`` kernels hit the selected backend's batched forms —
        the timing tiers are backend-invariant (cycles price token
        counts), so only evaluation wall-clock moves.
    cosim_verify:
        Whether the cosim tier also runs the redundant functional
        checking solve per finalist. Off by default: the streamed state
        is bitwise identical either way, and the parity suite audits
        the checked path, so campaigns skip it for speed. Turning it on
        records ``state_max_rel_err`` on each finalist's result.
    """

    name: str
    axes: tuple[tuple[str, tuple], ...]
    base: DesignPoint = DesignPoint()
    max_survivors: int = 8
    max_cosim: int = 4
    backend: str | None = None
    cosim_verify: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise DSEError("campaign needs a name")
        if self.max_survivors < 1 or self.max_cosim < 1:
            raise DSEError("max_survivors and max_cosim must be >= 1")
        if self.backend is not None:
            from ..backend import available_backends

            known = available_backends()
            if str(self.backend).strip().lower() not in known:
                raise DSEError(
                    f"unknown campaign backend {self.backend!r}; "
                    f"available: {', '.join(known)}"
                )
        seen: set[str] = set()
        for axis_name, values in self.axes:
            if axis_name not in POINT_FIELDS:
                raise DSEError(
                    f"unknown campaign axis {axis_name!r}; design-point "
                    f"fields: {', '.join(sorted(POINT_FIELDS))}"
                )
            if axis_name in seen:
                raise DSEError(f"duplicate campaign axis {axis_name!r}")
            if not values:
                raise DSEError(f"campaign axis {axis_name!r} has no values")
            seen.add(axis_name)

    def spec(self) -> dict:
        """The campaign as a plain dict (BENCH metadata form)."""
        return {
            "name": self.name,
            "axes": [[axis, list(values)] for axis, values in self.axes],
            "base": self.base.spec(),
            "max_survivors": self.max_survivors,
            "max_cosim": self.max_cosim,
            "backend": self.backend,
            "cosim_verify": self.cosim_verify,
        }

    def fingerprint(self) -> str:
        """Content identity of the campaign (SHA-256 of :meth:`spec`).

        The checkpoint journal records it so ``resume=True`` refuses to
        splice progress from a *different* sweep into this one.
        """
        from .fingerprint import fingerprint as _fingerprint

        return _fingerprint(self.spec())

    def expand(
        self,
    ) -> tuple[list[DesignPoint], list[tuple[DesignPoint, str]]]:
        """The full grid, split into feasible points and skipped ones.

        Returns ``(points, skipped)`` where ``skipped`` pairs each
        infeasible point with its reason. Raises
        :class:`~repro.errors.DSEError` if the whole grid is
        infeasible.
        """
        # Each check of ``DesignPoint.__post_init__`` reads one field, so
        # checking (and canonicalizing) each axis value once checks every
        # grid point. Checking the first point, then the rest last axis
        # first, raises the error of the first bad point in grid order.
        first = replace(self.base, **{a: vs[0] for a, vs in self.axes})
        grids = [
            [getattr(replace(first, **{axis: v}), axis) for v in values]
            for axis, values in reversed(self.axes)
        ][::-1]
        names = [axis for axis, _ in self.axes]
        row = first.spec()
        points: list[DesignPoint] = []
        skipped: list[tuple[DesignPoint, str]] = []
        for combo in itertools.product(*grids):
            row.update(zip(names, combo))
            # Declaration order, as ``__init__``: a compact attribute dict.
            point = object.__new__(DesignPoint)
            for name in POINT_FIELDS:
                object.__setattr__(point, name, row[name])
            reason = point.infeasibility()
            if reason is None:
                points.append(point)
            else:
                skipped.append((point, reason))
        if not points:
            raise DSEError(
                f"campaign {self.name!r} expands to no feasible points "
                f"({len(skipped)} skipped)"
            )
        return points, skipped
