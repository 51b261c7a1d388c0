"""The two evaluated design points (paper Section IV).

**Proposed** (Section III): Load-Compute-Store element pipeline with
node-level TLP inside COMPUTE, per-array AXI assignment over four load
interfaces (with load/store interface reuse), decoupled RKU interfaces,
RKL and RKU on separate SLRs, and Section III-D DSE directives.

**Vitis baseline** (Section IV-A): the same kernels under the Vitis-HLS
automatic strategy only — no dataflow pragma (tasks run back-to-back per
element), every array on the single default ``gmem`` bundle, coupled RKU
interfaces, both kernels packed into one SLR. Critically, without the
restructuring the merged node loop carries a read-modify-write
recurrence through the element-residual BRAM (load 2 cycles + fadd 7
cycles), capping its II — the dependency the paper's partials staging
removes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..errors import ExperimentError, HLSError
from ..opcount import NUM_FIELDS
from ..hls.directives import DirectiveSet, vitis_default_directives
from ..hls.loops import ArrayAccess, LoopNest
from ..hls.resources import (
    ResourceVector,
    array_resources,
    interface_resources,
    loop_resources,
)
from ..hls.scheduler import LoopSchedule, schedule_loop
from ..fpga.axi import MemoryPort, burst_cycles
from ..fpga.ddr import DDR4_2400, DDRTimings, gather_access_cycles
from ..fpga.device import ALVEO_U200, FPGADevice
from ..fpga.floorplan import (
    Floorplan,
    KernelPlacement,
    clock_for_floorplan,
    plan_floorplan,
)
from ..fpga.power import FPGAPowerModel, PowerReport
from .calibration import DEFAULT_CALIBRATION, AcceleratorCalibration
from .interfaces import (
    InterfaceAssignment,
    assign_interfaces,
    single_interface_assignment,
)
from .kernels import (
    RKLKernelModel,
    RKUKernelModel,
    build_rkl_kernel,
    build_rku_kernel,
)
from .optimizer import IIOptimizer

#: Static-region (XDMA shell + DDR controllers) resources included in
#: post-P&R utilization (the U200 shell occupies ~100k LUT and most of
#: the BRAM-heavy memory-controller columns).
SHELL_RESOURCES = ResourceVector(
    lut=100_000, ff=130_000, bram36=350, uram=7, dsp=12
)
#: Datapath mover per gather interface (address generation, reorder,
#: width conversion, burst FIFOs) — the LOAD/STORE task infrastructure.
DATA_MOVER_COST = ResourceVector(lut=12_000, ff=20_000, bram36=16, dsp=8)
#: DSE resource budget as a fraction of one SLR: beyond this the
#: congestion model drops the achievable clock below the 150 MHz target,
#: which is the paper's stated stopping criterion.
DSE_CLOCK_PRESERVING_BUDGET_FRACTION = 0.40
#: Recurrence II of the baseline's merged node loop: the element-residual
#: accumulation is a read-modify-write through a BRAM port — 2-cycle
#: read + 7-cycle fadd + 1-cycle write + 2 cycles of address/forwarding
#: logic = 12 cycles. The restructured design's partials staging
#: (write-only 2c stage) removes this dependency entirely.
BASELINE_MERGED_RECURRENCE_II = 12


@dataclass(frozen=True)
class DesignOptions:
    """All architectural switches distinguishing the evaluated designs."""

    name: str
    element_dataflow: bool
    node_dataflow: bool
    num_load_interfaces: int
    num_store_interfaces: int
    decoupled_rku: bool
    split_slrs: bool
    directive_strategy: str  # 'dse' | 'vitis-auto'
    batch_elements: int = 1536
    #: GLL polynomial order the kernel models are elaborated at. The
    #: paper evaluates the order-2 (27-node) element; the design-space
    #: exploration sweeps this so each priced configuration's node loops
    #: match the mesh it is priced on.
    polynomial_order: int = 2

    def __post_init__(self) -> None:
        if self.directive_strategy not in ("dse", "vitis-auto"):
            raise HLSError(
                f"unknown directive strategy {self.directive_strategy!r}"
            )
        if self.num_load_interfaces < 1 or self.num_store_interfaces < 1:
            raise HLSError("interface counts must be >= 1")
        if self.polynomial_order < 1:
            raise HLSError("polynomial_order must be >= 1")


PROPOSED_OPTIONS = DesignOptions(
    name="proposed",
    element_dataflow=True,
    node_dataflow=True,
    num_load_interfaces=4,
    num_store_interfaces=2,
    decoupled_rku=True,
    split_slrs=True,
    directive_strategy="dse",
    batch_elements=1792,
)

VITIS_BASELINE_OPTIONS = DesignOptions(
    name="vitis-optimized",
    element_dataflow=False,
    node_dataflow=False,
    num_load_interfaces=1,
    num_store_interfaces=1,
    decoupled_rku=False,
    split_slrs=False,
    directive_strategy="vitis-auto",
    batch_elements=1,  # no URAM staging in the baseline
)


def _merge_node_loops(rkl: RKLKernelModel) -> LoopNest:
    """The baseline's fused 2a+2b+2c node loop (no TLP restructuring)."""
    q = rkl.nodes_per_element
    ops: dict[str, float] = {}
    access_totals: dict[str, tuple[float, float]] = {}
    for loop in rkl.node_loops.values():
        for op, count in loop.ops_per_iter.items():
            ops[op] = ops.get(op, 0.0) + count
        for acc in loop.accesses:
            reads, writes = access_totals.get(acc.array, (0.0, 0.0))
            access_totals[acc.array] = (
                reads + acc.reads_per_iter,
                writes + acc.writes_per_iter,
            )
    accesses = [
        ArrayAccess(array=name, reads_per_iter=r, writes_per_iter=w)
        for name, (r, w) in access_totals.items()
    ]
    return LoopNest(
        name="node_merged",
        trip_count=q,
        ops_per_iter=ops,
        accesses=accesses,
        recurrence_ii=BASELINE_MERGED_RECURRENCE_II,
    )


def priced(method):
    """Memoize ``method(design, ...)`` in the design's price table,
    keyed by the method and its arguments.

    Sound because a design is never mutated after ``__post_init__``.
    Dict results come back as copies; the others (numbers, floorplans,
    resource vectors) are shared and must not be mutated.
    """

    @functools.wraps(method)
    def lookup(design, *args, **kwargs):
        key = (lookup, *args, *sorted(kwargs.items()))
        table = design._prices
        try:
            value = table[key]
        except KeyError:
            value = table[key] = method(design, *args, **kwargs)
        return dict(value) if type(value) is dict else value

    return lookup


@dataclass(frozen=True)
class DesignTiming:
    """Seconds per time step of one design on one mesh size.

    One type for both timing routes: the closed form
    (:func:`repro.accel.cosim.design_timing`) and the co-simulated step
    (:func:`repro.accel.cosim.design_timing_from_rk_cosim`). Both run at
    the clock of their CU count's placement
    (:meth:`AcceleratorDesign.floorplan_for`).
    """

    design_name: str
    num_nodes: int
    num_elements: int
    clock_mhz: float
    #: One RK stage of the spatial operator; with several compute units
    #: the *max* over CUs (the stage completes when the slowest shard
    #: drains).
    rkl_seconds_per_stage: float
    #: The whole-mesh RKU update — unsharded, the Amdahl term.
    rku_seconds_per_step: float
    num_stages: int
    #: RKL compute units the element stream is sharded over.
    num_compute_units: int = 1

    @property
    def rk_step_seconds(self) -> float:
        """RKL (all stages) + RKU for one time step."""
        return self.rkl_seconds_per_stage * self.num_stages + (
            self.rku_seconds_per_step
        )


@dataclass
class AcceleratorDesign:
    """A fully elaborated design point: structure, schedules, placement."""

    options: DesignOptions
    rkl: RKLKernelModel
    rku: RKUKernelModel
    directive_map: dict[str, DirectiveSet]
    node_schedules: dict[str, LoopSchedule]
    rku_schedules: dict[str, LoopSchedule]
    memory_assignment: InterfaceAssignment
    rkl_resources: ResourceVector
    rku_resources: ResourceVector
    device: FPGADevice
    calibration: AcceleratorCalibration = field(default=DEFAULT_CALIBRATION)
    ddr: DDRTimings = field(default=DDR4_2400)
    #: The one-CU placement, :meth:`floorplan_for` ``(1)``.
    floorplan: Floorplan = field(init=False)
    #: The achieved kernel clock of :attr:`floorplan`.
    clock_mhz: float = field(init=False)

    def __post_init__(self) -> None:
        # The price table of :func:`priced`: a plain attribute, not a
        # field, so equality, ``repr`` and fingerprints never see it.
        self._prices: dict = {}
        self.floorplan = self.floorplan_for(1)
        self.clock_mhz = self.clock_for(1)

    # -- resource / power -----------------------------------------------------

    @priced
    def resources_for(self, num_cus: int) -> ResourceVector:
        """Post-P&R total of ``num_cus`` RKL CUs, one RKU and the shell
        (Table I accounting at ``num_cus=1``)."""
        return (
            self.rkl_resources.scaled(num_cus)
            + self.rku_resources
            + SHELL_RESOURCES
        )

    def utilization(self) -> dict[str, float]:
        """Percent utilization of the device per resource class (Table I
        row)."""
        return self.resources_for(1).utilization_of(self.device.totals())

    def power_report(self, model: FPGAPowerModel | None = None) -> PowerReport:
        """Board power at this design's clock."""
        model = model or FPGAPowerModel()
        return model.report(self.resources_for(1), self.clock_mhz)

    # -- placement --------------------------------------------------------------

    @priced
    def floorplan_for(self, num_cus: int = 1) -> Floorplan:
        """Place ``num_cus`` RKL compute units and one RKU on this
        design's device — the one placement rule behind every clock.

        RKL CU ``k`` goes on the ``k``-th memory-attached SLR (its own
        DDR channels or HBM pseudo-channel group). RKU goes on the first
        memory-free SLR (SLR1 on the U200, the paper's split), or shares
        CU 0's SLR when the device has none or the design does not split
        its kernels (``split_slrs`` off, the Vitis baseline).

        Raises
        ------
        ExperimentError
            If ``num_cus`` is not ``1..`` the memory-attached SLR count.
        """
        memory_slrs = [s.name for s in self.device.ddr_attached_slrs()]
        if not 1 <= num_cus <= len(memory_slrs):
            raise ExperimentError(
                f"num_compute_units must be 1..{len(memory_slrs)} "
                f"on {self.device.name}"
            )
        placements = [
            KernelPlacement(
                f"rkl{cu}",
                self.rkl_resources,
                needs_ddr_attach=True,
                slr=memory_slrs[cu],
            )
            for cu in range(num_cus)
        ]
        memory_free = [
            s.name for s in self.device.slrs if not s.has_ddr_attach
        ]
        if self.options.split_slrs and memory_free:
            rku_slr = memory_free[0]
        else:
            rku_slr = memory_slrs[0]
        placements.append(
            KernelPlacement("rku", self.rku_resources, slr=rku_slr)
        )
        return plan_floorplan(self.device, placements)

    @priced
    def clock_for(self, num_cus: int) -> float:
        """Achieved kernel clock (MHz) of :meth:`floorplan_for`
        ``(num_cus)``."""
        return clock_for_floorplan(self.floorplan_for(num_cus))

    # -- RKL timing -------------------------------------------------------------

    def _gather_cycles_per_access(self, num_nodes: int) -> float:
        """Effective cycles per gather access (overlap applied)."""
        return gather_access_cycles(num_nodes, self.ddr) / (
            self.calibration.gather_overlap
        )

    def _interface_load_cycles(
        self, ports: list[MemoryPort], num_nodes: int
    ) -> float:
        """Per-element cycles of one interface serving the given ports."""
        per_access = self._gather_cycles_per_access(num_nodes)
        total = 0.0
        for port in ports:
            if port.pattern == "gather":
                total += port.accesses_per_iter * per_access
            else:
                total += burst_cycles(port.values_per_iter, self.ddr)
        return total

    def load_task_cycles(self, num_nodes: int) -> float:
        """LOAD-element task latency per element (slowest interface)."""
        per_task = self.memory_assignment.ports_for_task(self.rkl.load_ports)
        return max(
            self._interface_load_cycles(ports, num_nodes)
            for ports in per_task.values()
        )

    def store_task_cycles(self, num_nodes: int) -> float:
        """STORE-element-contribution task latency per element."""
        per_task = self.memory_assignment.ports_for_task(self.rkl.store_ports)
        return max(
            self._interface_load_cycles(ports, num_nodes)
            for ports in per_task.values()
        )

    def compute_task_cycles(self) -> tuple[float, float]:
        """COMPUTE task (fill, II) per element.

        With node-level TLP the three node stages pipeline:
        ``fill = sum(depths) + overhead``, ``II_node = max(stage IIs)``;
        without it, the merged node loop's schedule applies directly.
        """
        overhead = self.calibration.pipeline_depth_overhead
        if self.options.node_dataflow:
            stages = [
                self.node_schedules[name]
                for name in ("node_load", "node_compute", "node_store")
            ]
            fill = sum(s.depth for s in stages) + overhead
            ii = max(s.achieved_ii for s in stages)
            return fill, float(ii)
        merged = self.node_schedules["node_merged"]
        fill = merged.depth + overhead
        return float(fill), float(merged.achieved_ii)

    @priced
    def rkl_element_cycles(self, num_nodes: int) -> dict[str, float]:
        """Per-element cycles of the three element-level tasks."""
        fill, node_ii = self.compute_task_cycles()
        q = self.rkl.nodes_per_element
        compute = fill + node_ii * (q - 1)
        return {
            "load": self.load_task_cycles(num_nodes),
            "compute": compute,
            "store": self.store_task_cycles(num_nodes),
        }

    def _split_role_cycles(
        self, pipeline, role_cycles: dict[str, float]
    ) -> dict[str, float]:
        """Distribute per-role latencies over a pipeline's stages.

        LOAD and STORE stages split their role's cycles evenly, while
        COMPUTE stages split theirs in proportion to their per-token
        flop counts (:mod:`repro.pipeline.opcounts`) — so timing,
        op-accounting and functional execution all derive from the same
        stage graph. Group sums reproduce the role totals exactly, which
        keeps the lowered dataflow graph's cycle counts on the analytic
        pipeline laws.

        The co-simulation lowers the same pipeline at the same node
        count once per compute unit per call, so the split is memoized
        in the price table. Pipeline names identify structure (rewrites
        rename their results), so the stage-name tuple in the key is a
        guard, not the discriminator.
        """
        key = (
            "_split_role_cycles",
            pipeline.name,
            tuple(stage.name for stage in pipeline.stages),
            tuple(sorted(role_cycles.items())),
        )
        if key in self._prices:
            return dict(self._prices[key])
        from ..pipeline.opcounts import pipeline_op_counts

        flops = {
            name: count.flops
            for name, count in pipeline_op_counts(
                pipeline, self.rkl.polynomial_order
            ).items()
        }
        out: dict[str, float] = {}
        for role, stages in pipeline.role_groups():
            total = role_cycles[role]
            if len(stages) == 1:
                out[stages[0].name] = total
                continue
            if role == "compute":
                weights = [flops[s.name] for s in stages]
            else:
                weights = [1.0] * len(stages)
            weight_sum = sum(weights)
            assigned = 0.0
            for stage, weight in zip(stages[:-1], weights[:-1]):
                share = total * weight / weight_sum
                out[stage.name] = share
                assigned += share
            out[stages[-1].name] = total - assigned
        self._prices[key] = out
        return dict(out)

    def pipeline_stage_cycles(
        self, pipeline, num_nodes: int
    ) -> dict[str, float]:
        """Per-stage cycles for an RKL operator-pipeline IR instance.

        Each role group shares its element task's analytic latency
        (:meth:`rkl_element_cycles`), split over its stages by
        :meth:`_split_role_cycles`; group sums reproduce the role
        totals, keeping the lowered dataflow graph's cycle counts on the
        analytic ``fill + II * (E - 1)`` model.
        """
        return self._split_role_cycles(
            pipeline, self.rkl_element_cycles(num_nodes)
        )

    def rkl_element_ii(self, num_nodes: int) -> float:
        """Steady-state element II (TLP) or full serial latency (baseline)."""
        cycles = self.rkl_element_cycles(num_nodes)
        if self.options.element_dataflow:
            return max(cycles.values())
        return sum(cycles.values())

    def rkl_fill_cycles(self, num_nodes: int) -> float:
        """First-element latency of the element pipeline."""
        cycles = self.rkl_element_cycles(num_nodes)
        return sum(cycles.values())

    # -- RKU timing ---------------------------------------------------------------

    @priced
    def rku_fill_cycles(self) -> float:
        """First-node latency of the RKU kernel (fills + SLL crossings).

        The sum over the five update loops of pipeline depth plus the
        SLL-crossing penalty each pays when RKU sits on a non-DDR SLR
        (the paper's placement).
        """
        sll = 0
        if self.options.split_slrs:
            crossings = self.floorplan.crossings("rku")
            sll = crossings * self.device.sll_crossing_latency_cycles
        return float(
            sum(sched.depth + sll for sched in self.rku_schedules.values())
        )

    @priced
    def rku_node_cycles(self, num_nodes: int) -> dict[str, float]:
        """Per-node cycles of the three streamed RKU roles.

        This is the RKU analogue of :meth:`rkl_element_cycles`, used to
        lower the :func:`~repro.pipeline.rk_update.rk_update_pipeline`
        node stream to a cycle-accurate task chain. COMPUTE carries the
        summed achieved II of the five update loops (they share one
        update datapath, so a node retires only when all five quantities
        did); LOAD and STORE are the streaming interfaces, moving the
        node's ``NUM_FIELDS`` doubles per 512-bit AXI beat (8 values) —
        well under the compute II for both evaluated designs, so the
        chain's steady state reproduces the ``sum(II) * (N - 1)`` term
        of :meth:`rku_step_cycles`.
        """
        stream = NUM_FIELDS / 8.0
        ii_total = float(
            sum(sched.achieved_ii for sched in self.rku_schedules.values())
        )
        return {"load": stream, "compute": ii_total, "store": stream}

    def rku_pipeline_stage_cycles(
        self, pipeline, num_nodes: int
    ) -> dict[str, float]:
        """Per-stage cycles for an RK-update pipeline IR instance.

        The role latencies come from :meth:`rku_node_cycles` and are
        split over the pipeline's stages by :meth:`_split_role_cycles`
        (flop-weighted within COMPUTE), mirroring
        :meth:`pipeline_stage_cycles` — one latency model for both
        halves of the RK step, derived from the same IR.
        """
        return self._split_role_cycles(
            pipeline, self.rku_node_cycles(num_nodes)
        )

    def rku_step_cycles(self, num_nodes: int) -> float:
        """Cycles for the RKU update of one time step (5 update loops).

        The loops run back-to-back over all nodes; each retires one node
        per achieved II, so the total is the kernel fill
        (:meth:`rku_fill_cycles`) plus the per-node compute cycles of
        :meth:`rku_node_cycles` scaled by the remaining nodes — the
        closed form the full-step co-simulation's RKU trace must
        reproduce.
        """
        return self.rku_fill_cycles() + self.rku_node_cycles(num_nodes)[
            "compute"
        ] * (num_nodes - 1)

    # -- reporting -------------------------------------------------------------

    def summary(self) -> str:
        """One-paragraph design summary."""
        fill, ii = self.compute_task_cycles()
        return (
            f"design {self.options.name!r}: clock {self.clock_mhz:.0f} MHz, "
            f"{'TLP' if self.options.element_dataflow else 'sequential'} "
            f"element tasks, node II {ii:.0f}, "
            f"{self.memory_assignment.num_interfaces} AXI interfaces, "
            f"SLRs: {sorted(set(self.floorplan.assignments.values()))}"
        )


def _rku_directives(rku: RKUKernelModel) -> dict[str, DirectiveSet]:
    """RKU loops are simple streams: pipeline them all."""
    from ..hls.directives import PipelineDirective

    return {
        loop.name: DirectiveSet(pipeline=PipelineDirective(target_ii=1))
        for loop in rku.update_loops
    }


def _schedule_rku(rku: RKUKernelModel) -> dict[str, LoopSchedule]:
    directives = _rku_directives(rku)
    return {
        loop.name: schedule_loop(loop, directives[loop.name], rku.onchip_arrays)
        for loop in rku.update_loops
    }


def _rkl_interface_count(options: DesignOptions) -> int:
    """Distinct RKL interfaces after load/store reuse."""
    return max(options.num_load_interfaces, options.num_store_interfaces)


def _rku_interface_count(options: DesignOptions) -> int:
    """RKU interfaces: decoupled designs pay a read+write pair per stream
    group (4 pairs); the baseline shares one bundle."""
    return 8 if options.decoupled_rku else 1


def _build_design(
    options: DesignOptions,
    device: FPGADevice,
    calibration: AcceleratorCalibration,
) -> AcceleratorDesign:
    rkl = build_rkl_kernel(
        polynomial_order=options.polynomial_order,
        batch_elements=options.batch_elements,
    )
    rku = build_rku_kernel(
        options.decoupled_rku, calibration.rku_read_latency_cycles
    )

    # -- interface assignment ---------------------------------------------------
    task_ports = {"load": rkl.load_ports, "store": rkl.store_ports}
    if options.num_load_interfaces == 1 and options.num_store_interfaces == 1:
        assignment = single_interface_assignment(task_ports)
    else:
        # Load and store phases alternate on the staging batches, so their
        # arrays may reuse interfaces (no concurrent pair declared).
        assignment = assign_interfaces(
            task_ports,
            concurrent_tasks=[],
            max_interfaces=_rkl_interface_count(options),
        )

    # -- directive selection & scheduling -----------------------------------------
    scratch_arrays = {
        name: spec
        for name, spec in rkl.onchip_arrays.items()
        if not name.startswith("stage_")
    }
    if options.node_dataflow:
        rkl_loops: dict[str, LoopNest] = dict(rkl.node_loops)
    else:
        rkl_loops = {"node_merged": _merge_node_loops(rkl)}
    if options.directive_strategy == "dse":
        # The paper stops optimizing before "resource over-utilization,
        # which would result in lower clock frequencies": utilization
        # beyond ~40% of the SLR pushes the congestion-derated clock
        # under the 150 MHz target, so that is the DSE budget.
        slr_budget = device.slrs[0].resources.scaled(
            DSE_CLOCK_PRESERVING_BUDGET_FRACTION
        )
        optimizer = IIOptimizer(
            loops=rkl_loops,
            arrays=scratch_arrays,
            budget=slr_budget,
        )
        directive_map, node_schedules = optimizer.optimize()
    else:
        directive_map = {}
        node_schedules = {}
        for name, loop in rkl_loops.items():
            directives = vitis_default_directives(loop, scratch_arrays)
            directive_map[name] = directives
            node_schedules[name] = schedule_loop(
                loop, directives, scratch_arrays
            )

    rku_schedules = _schedule_rku(rku)

    # -- resources ------------------------------------------------------------------
    rkl_loop_res = ResourceVector()
    for name, loop in rkl_loops.items():
        rkl_loop_res = rkl_loop_res + loop_resources(
            loop, node_schedules[name]
        )
    rkl_array_res = array_resources(rkl.onchip_arrays, directive_map)
    num_gather_ifaces = sum(
        1
        for ports in assignment.assignment.values()
        if any(p.pattern == "gather" for p in ports)
    )
    rkl_res = (
        rkl_loop_res
        + rkl_array_res
        + interface_resources(_rkl_interface_count(options))
        + DATA_MOVER_COST.scaled(num_gather_ifaces)
    )

    rku_loop_res = ResourceVector()
    for loop in rku.update_loops:
        rku_loop_res = rku_loop_res + loop_resources(
            loop, rku_schedules[loop.name]
        )
    rku_res = (
        rku_loop_res
        + array_resources(rku.onchip_arrays, _rku_directives(rku))
        + interface_resources(_rku_interface_count(options))
        + DATA_MOVER_COST.scaled(2 if options.decoupled_rku else 1)
    )

    return AcceleratorDesign(
        options=options,
        rkl=rkl,
        rku=rku,
        directive_map=directive_map,
        node_schedules=node_schedules,
        rku_schedules=rku_schedules,
        memory_assignment=assignment,
        rkl_resources=rkl_res,
        rku_resources=rku_res,
        device=device,
        calibration=calibration,
    )


def proposed_design(
    device: FPGADevice = ALVEO_U200,
    calibration: AcceleratorCalibration = DEFAULT_CALIBRATION,
) -> AcceleratorDesign:
    """The paper's proposed accelerator (Section III)."""
    return _build_design(PROPOSED_OPTIONS, device, calibration)


def vitis_baseline_design(
    device: FPGADevice = ALVEO_U200,
    calibration: AcceleratorCalibration = DEFAULT_CALIBRATION,
) -> AcceleratorDesign:
    """The Vitis-HLS auto-optimized baseline (Section IV-A)."""
    return _build_design(VITIS_BASELINE_OPTIONS, device, calibration)


def custom_design(
    options: DesignOptions,
    device: FPGADevice = ALVEO_U200,
    calibration: AcceleratorCalibration = DEFAULT_CALIBRATION,
) -> AcceleratorDesign:
    """Build an arbitrary design point (used by the ablation studies)."""
    return _build_design(options, device, calibration)
