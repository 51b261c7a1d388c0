"""The operator pipeline IR (paper Fig. 1 as data).

One declarative stage graph describes the FEM spatial operator; the
solver executes it functionally, the accelerator co-simulator executes
it cycle-accurately with real payloads, and the workload model derives
per-stage operation counts from it. Fusion levels are graph rewrites.

- :mod:`repro.pipeline.ir` — :class:`Stage` / :class:`OperatorPipeline`
  and the lowering to :class:`~repro.dataflow.graph.DataflowGraph`;
- :mod:`repro.pipeline.kernels` — the kernel registry and the bound
  :class:`PipelineContext`;
- :mod:`repro.pipeline.navier_stokes` — the NS (RKL) pipeline instances;
- :mod:`repro.pipeline.rk_update` — the RK-update (RKU) node pipeline:
  stage-combination axpy + primitive update, streamed per node block;
- :mod:`repro.pipeline.rewrites` — gather-sharing, flux fusion, and
  preallocated-buffer binding;
- :mod:`repro.pipeline.executor` — functional (whole-mesh and
  element-blocked), per-branch and (block-)streaming execution;
- :mod:`repro.pipeline.opcounts` — per-stage operation counts.
"""

from .ir import DEFAULT_TASK_NAMES, OperatorPipeline, PayloadSpec, Stage
from .kernels import (
    PIPELINE_KERNELS,
    PipelineContext,
    element_primitives,
    register_pipeline_kernel,
)
from .navier_stokes import element_pipeline, navier_stokes_pipeline
from .rewrites import bind_stage_buffers, fuse_flux_divergence, share_loads
from .executor import (
    assembled_total,
    element_residuals,
    run_blocked_pipeline,
    run_pipeline,
    streaming_actions,
    streaming_plan,
)
from .rk_update import (
    RK_UPDATE_TASK_NAMES,
    RKUpdateContext,
    rk_update_pipeline,
)
from .opcounts import (
    pipeline_op_counts,
    pipeline_phase_op_counts,
    stage_op_count,
)

__all__ = [
    "DEFAULT_TASK_NAMES",
    "OperatorPipeline",
    "PayloadSpec",
    "Stage",
    "PIPELINE_KERNELS",
    "PipelineContext",
    "element_primitives",
    "register_pipeline_kernel",
    "element_pipeline",
    "navier_stokes_pipeline",
    "bind_stage_buffers",
    "fuse_flux_divergence",
    "share_loads",
    "RK_UPDATE_TASK_NAMES",
    "RKUpdateContext",
    "rk_update_pipeline",
    "assembled_total",
    "element_residuals",
    "run_blocked_pipeline",
    "run_pipeline",
    "streaming_actions",
    "streaming_plan",
    "pipeline_op_counts",
    "pipeline_phase_op_counts",
    "stage_op_count",
]
