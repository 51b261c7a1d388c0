"""The operator pipeline IR: a declarative stage graph.

The paper's central observation is that the FEM spatial operator is one
small, fixed dataflow (Fig. 1: LOAD element -> gradients/fluxes -> weak
divergence -> STORE contribution) that can be *restructured* per target.
This module pins that pipeline down as data instead of code: an
:class:`OperatorPipeline` is a named DAG of :class:`Stage` objects, each
naming a pipeline kernel (see :mod:`repro.pipeline.kernels`) together
with the payloads it consumes and produces.

One IR instance serves three consumers:

- the solver executes it **functionally** on batched numpy arrays
  (:func:`repro.pipeline.executor.run_pipeline`);
- the accelerator co-simulator lowers it to a cycle-accurate
  :class:`~repro.dataflow.graph.DataflowGraph` via :meth:`to_task_graph`
  and streams real elements through it;
- the workload characterization derives per-stage operation counts from
  it (:mod:`repro.pipeline.opcounts`).

Fusion levels of the Navier-Stokes operator are *graph rewrites* over
this IR (:mod:`repro.pipeline.rewrites`), not separate code paths.

Unlike the hardware-facing :mod:`repro.dataflow` layer, payloads here may
have multiple consumers (a value is broadcast, the way the shared gather
feeds both flux branches); lowering to hardware buffers via
:meth:`to_task_graph` requires the pipeline to be linear after grouping
stages by role, which re-establishes the paper's SPSC discipline.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from ..dataflow.graph import DataflowGraph, kahn_order
from ..dataflow.task import BlockLatency, Task
from ..errors import PipelineError

#: Valid stage roles — the three element-level tasks of the paper's Fig. 1.
STAGE_ROLES = ("load", "compute", "store")

#: Default task names used when lowering role groups to a dataflow graph
#: (the names the accelerator tests and reports know).
DEFAULT_TASK_NAMES: Mapping[str, str] = {
    "load": "load_element",
    "compute": "compute_diffusion_convection",
    "store": "store_element_contribution",
}


@dataclass(frozen=True)
class PayloadSpec:
    """Shape declaration of one inter-stage payload.

    ``shape`` uses symbolic dims (``"F"`` fields, ``"E"`` elements,
    ``"Q"`` nodes per element, ``"N"`` global nodes) or literal ints.

    ``dtype`` declares the payload's *symbolic* precision class, resolved
    against a :class:`~repro.precision.modes.PrecisionPolicy` at
    execution time: ``"storage"`` (the streamed dtype — f32 in the
    device-faithful modes, f64 for the oracle), ``"accumulate"`` (the
    reduction dtype — f64 in ``mixed``/``float64``), or ``"index"``
    (integer plumbing such as connectivity). ``None`` means the payload
    inherits whatever dtype flows in (scalars, sequences).
    """

    name: str
    shape: tuple[object, ...]
    description: str = ""
    dtype: str | None = None


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: a named kernel with its payload wiring.

    Attributes
    ----------
    name:
        Unique stage name within the pipeline.
    role:
        One of :data:`STAGE_ROLES`; drives dataflow-graph grouping and
        accelerator latency assignment.
    kernel:
        Name in the pipeline kernel registry
        (:data:`repro.pipeline.kernels.PIPELINE_KERNELS`) — a
        :class:`~repro.backend.KernelBackend` kernel or a pointwise
        physics function.
    inputs / outputs:
        Payload names consumed / produced.
    phase:
        Profiler phase the functional executor attributes this stage to
        (the paper's Fig. 2 categories).
    params:
        Kernel parameters (e.g. ``sign`` and ``field_start`` of a weak
        divergence, ``num_fields`` of a store).
    """

    name: str
    role: str
    kernel: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    phase: str = "rk.other"
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise PipelineError("stage name must be non-empty")
        if self.role not in STAGE_ROLES:
            raise PipelineError(
                f"stage {self.name!r}: role must be one of {STAGE_ROLES}, "
                f"got {self.role!r}"
            )
        if not self.outputs:
            raise PipelineError(f"stage {self.name!r}: must produce a payload")

    def param(self, key: str, default: object = None) -> object:
        """Kernel parameter lookup with a default."""
        return self.params.get(key, default)


@dataclass
class OperatorPipeline:
    """A named DAG of stages wired by payloads."""

    name: str
    stages: list[Stage] = field(default_factory=list)
    payloads: dict[str, PayloadSpec] = field(default_factory=dict)

    # -- construction ----------------------------------------------------------

    def add_stage(self, stage: Stage) -> Stage:
        """Append a stage; names and payload producers must stay unique."""
        if any(s.name == stage.name for s in self.stages):
            raise PipelineError(
                f"pipeline {self.name!r}: duplicate stage {stage.name!r}"
            )
        for out in stage.outputs:
            if self.producer_of(out) is not None:
                raise PipelineError(
                    f"pipeline {self.name!r}: payload {out!r} already has a "
                    f"producer ({self.producer_of(out).name!r})"
                )
        self.stages.append(stage)
        return stage

    def declare_payload(self, spec: PayloadSpec) -> PayloadSpec:
        """Record a payload's shape declaration."""
        self.payloads[spec.name] = spec
        return spec

    # -- queries ---------------------------------------------------------------

    def stage(self, name: str) -> Stage:
        """Stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise PipelineError(f"pipeline {self.name!r}: no stage {name!r}")

    def producer_of(self, payload: str) -> Stage | None:
        """The stage producing ``payload`` (None for external inputs)."""
        for stage in self.stages:
            if payload in stage.outputs:
                return stage
        return None

    def consumers_of(self, payload: str) -> list[Stage]:
        """All stages consuming ``payload`` (broadcast is legal in the IR)."""
        return [s for s in self.stages if payload in s.inputs]

    def external_inputs(self) -> list[str]:
        """Payloads consumed but produced by no stage (pipeline inputs)."""
        seen: list[str] = []
        for stage in self.stages:
            for name in stage.inputs:
                if self.producer_of(name) is None and name not in seen:
                    seen.append(name)
        return seen

    def output_payloads(self) -> list[str]:
        """Payloads produced but consumed by no stage (pipeline outputs)."""
        out: list[str] = []
        for stage in self.stages:
            for name in stage.outputs:
                if not self.consumers_of(name):
                    out.append(name)
        return out

    def topological_order(self) -> list[Stage]:
        """Stages in dependency order (raises on cycles).

        The order is :func:`~repro.dataflow.graph.kahn_order` over the
        producer -> consumer edges, in stage order.
        """
        produced_by = {
            out: stage.name for stage in self.stages for out in stage.outputs
        }
        order = kahn_order(
            (stage.name for stage in self.stages),
            (
                (produced_by[name], stage.name)
                for stage in self.stages
                for name in stage.inputs
                if name in produced_by
            ),
        )
        if order is None:
            raise PipelineError(f"pipeline {self.name!r}: contains a cycle")
        by_name = {stage.name: stage for stage in self.stages}
        return [by_name[name] for name in order]

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Structural rules: unique producers, known wiring, acyclicity."""
        if not self.stages:
            raise PipelineError(f"pipeline {self.name!r}: has no stages")
        producers: dict[str, str] = {}
        for stage in self.stages:
            for out in stage.outputs:
                if out in producers:
                    raise PipelineError(
                        f"pipeline {self.name!r}: payload {out!r} produced by "
                        f"both {producers[out]!r} and {stage.name!r}"
                    )
                producers[out] = stage.name
        self.topological_order()  # acyclicity

    # -- lowering to the cycle-accurate dataflow layer -------------------------

    def role_groups(self) -> list[tuple[str, list[Stage]]]:
        """Stages condensed by role into the element task chain.

        This is the lowering used for the accelerator: all LOAD stages
        form the LOAD task, all COMPUTE stages the COMPUTE task, all
        STORE stages the STORE task (stages keep topological order
        inside their group). Grouping *is* the hardware merge, so even
        the multi-branch ``fusion="none"``/``"gather"`` pipelines lower
        — both passes fold into the merged diffusion+convection tasks.

        Two rules keep the condensation a legal chain (the paper's
        sequential-transfer discipline): payloads may never flow
        *backwards* against the LOAD -> COMPUTE -> STORE role order, and
        never *skip* a populated role group (e.g. LOAD feeding STORE
        directly while COMPUTE stages exist).
        """
        order = self.topological_order()
        by_role: dict[str, list[Stage]] = {role: [] for role in STAGE_ROLES}
        for stage in order:
            by_role[stage.role].append(stage)
        groups = [
            (role, by_role[role]) for role in STAGE_ROLES if by_role[role]
        ]
        group_of = {
            stage.name: idx
            for idx, (_, stages) in enumerate(groups)
            for stage in stages
        }
        for stage in order:
            for payload in stage.inputs:
                producer = self.producer_of(payload)
                if producer is None:
                    continue
                src, dst = group_of[producer.name], group_of[stage.name]
                if dst < src:
                    raise PipelineError(
                        f"pipeline {self.name!r}: payload {payload!r} flows "
                        f"backwards against the role order "
                        f"({producer.name!r} -> {stage.name!r})"
                    )
                if dst > src + 1:
                    raise PipelineError(
                        f"pipeline {self.name!r}: payload {payload!r} "
                        f"bypasses a role group ({producer.name!r} -> "
                        f"{stage.name!r}), violating sequential transfer"
                    )
        return groups

    def to_task_graph(
        self,
        stage_cycles: Mapping[str, float],
        *,
        task_names: Mapping[str, str] | None = None,
        actions: Mapping[str, Callable[[int, tuple], object]] | None = None,
        name: str | None = None,
        block_sizes: Sequence[int] | None = None,
    ) -> DataflowGraph:
        """Lower the pipeline to a cycle-accurate dataflow task graph.

        Parameters
        ----------
        stage_cycles:
            Per-stage latency estimates in cycles (see
            :meth:`repro.accel.designs.AcceleratorDesign.pipeline_stage_cycles`);
            stages grouped into one role task contribute the *sum* of
            their cycles, so group totals match the analytic role
            latencies.
        task_names:
            Renames the role tasks (defaults to
            :data:`DEFAULT_TASK_NAMES`); multi-CU lowering prefixes the
            names per compute unit so shards coexist in one graph.
        actions:
            Optional payload-carrying execution per role (functional
            co-simulation, see
            :func:`repro.pipeline.executor.streaming_actions`).
        name:
            Graph name (defaults to ``pipeline-<pipeline name>``).
        block_sizes:
            When tokens carry element *blocks*, the number of elements
            in each block token. Task latency then becomes
            iteration-dependent — the per-element role latency scaled by
            that iteration's block size — so the block pipeline keeps
            the ``fill + II * (tokens - 1)`` cycle law with the II
            scaled per block. ``None`` keeps one-element tokens with
            constant latency.

        Returns
        -------
        DataflowGraph
            A linear LOAD -> COMPUTE -> STORE task chain wired with PIPO
            buffers.

        Raises
        ------
        PipelineError
            If any stage lacks a cycle estimate, a block size is < 1, or
            the role grouping violates the sequential-transfer rules.
        """
        names = dict(DEFAULT_TASK_NAMES)
        if task_names:
            names.update(task_names)
        if block_sizes is not None:
            block_sizes = [int(size) for size in block_sizes]
            if any(size < 1 for size in block_sizes):
                raise PipelineError(
                    f"pipeline {self.name!r}: block sizes must be >= 1, "
                    f"got {block_sizes}"
                )
        graph = DataflowGraph(name=name or f"pipeline-{self.name}")
        tasks: list[Task] = []
        for role, stages in self.role_groups():
            missing = [s.name for s in stages if s.name not in stage_cycles]
            if missing:
                raise PipelineError(
                    f"pipeline {self.name!r}: no cycle estimate for "
                    f"stage(s) {missing}"
                )
            per_element = sum(stage_cycles[s.name] for s in stages)
            if block_sizes is None:
                latency: int | Callable[[int], int] = max(
                    1, round(per_element)
                )
            else:
                # A vectorizable latency model: per-element role cycles
                # scaled by each token's block size, evaluated in bulk
                # by the schedule engine.
                latency = BlockLatency(per_element, block_sizes)

            tasks.append(
                Task(
                    names.get(role, role),
                    latency,
                    kind=role,
                    action=None if actions is None else actions.get(role),
                )
            )
        graph.chain(tasks)
        return graph

    # -- reporting -------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line structural description (mirrors DataflowGraph)."""
        lines = [f"operator pipeline {self.name!r}"]
        for stage in self.topological_order():
            ins = ", ".join(stage.inputs) or "-"
            outs = ", ".join(stage.outputs) or "-"
            lines.append(
                f"  stage {stage.name:<24} role={stage.role:<8} "
                f"kernel={stage.kernel:<18} phase={stage.phase:<14} "
                f"in=[{ins}] out=[{outs}]"
            )
        return "\n".join(lines)
