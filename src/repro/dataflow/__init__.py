"""Task-Level Pipelining (TLP) dataflow engine (paper Section III-B).

The paper's key optimization partitions the core computation into
sequential tasks connected by FIFO/PIPO buffers; the slowest task sets
the pipeline's Initiation Interval (II). This package provides:

- :mod:`repro.dataflow.task` / :mod:`repro.dataflow.buffer` — the IR;
- :mod:`repro.dataflow.graph` — the task graph with the paper's validity
  rules (Single-Producer-Single-Consumer, no buffer may bypass a task);
- :mod:`repro.dataflow.simulator` — a cycle-level simulation with full
  stall accounting and deadlock detection;
- :mod:`repro.dataflow.schedule` — the vectorized schedule engine: the
  same run computed with array recurrences over whole iteration axes
  (``DataflowSimulator.run(..., engine="vectorized")``), which is what
  scales co-simulation to paper-scale meshes;
- :mod:`repro.dataflow.analysis` — steady-state analysis
  (``total = fill + II * (iterations - 1)``) verified against the
  simulator and used to extrapolate to paper-scale meshes.
"""

from .task import BlockLatency, Task, TaskStats
from .buffer import Buffer, BufferKind, fifo, pipo
from .graph import DataflowGraph, merge_graphs
from .simulator import DataflowSimulator, SimulationTrace
from .schedule import (
    GraphSchedule,
    TaskSchedule,
    clear_schedule_cache,
    compute_schedule,
    normalize_iteration_counts,
    schedule_cache_stats,
    set_schedule_cache,
)
from .analysis import (
    theoretical_initiation_interval,
    pipeline_fill_cycles,
    steady_state_cycles,
    exact_cycles,
)

__all__ = [
    "BlockLatency",
    "Task",
    "TaskStats",
    "Buffer",
    "BufferKind",
    "fifo",
    "pipo",
    "DataflowGraph",
    "merge_graphs",
    "DataflowSimulator",
    "SimulationTrace",
    "GraphSchedule",
    "TaskSchedule",
    "clear_schedule_cache",
    "compute_schedule",
    "normalize_iteration_counts",
    "schedule_cache_stats",
    "set_schedule_cache",
    "theoretical_initiation_interval",
    "pipeline_fill_cycles",
    "steady_state_cycles",
    "exact_cycles",
]
