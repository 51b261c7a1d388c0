"""Steady-state analysis of TLP pipelines.

For a linear pipeline of tasks with constant latencies ``L_k`` and PIPO
buffers, the classic dataflow result holds:

- the Initiation Interval is ``II = max_k L_k`` (the paper: "the most
  time-consuming task determin[es] the Initiation Interval");
- the fill (first-token) latency is ``sum_k L_k`` along the critical
  path;
- total cycles for N iterations: ``fill + II * (N - 1)``.

The cycle-level simulator verifies these formulas on small N (tested);
experiments then use them to extrapolate to the paper's multi-million
element meshes where cycle-by-cycle simulation would be impractical.
For graphs where the closed forms do not apply (merged multi-CU graphs,
uneven iteration counts, kernel-sequenced chains), :func:`exact_cycles`
solves the exact schedule with the vectorized engine instead — same
number the event simulation would produce, at array-recurrence cost.
"""

from __future__ import annotations

from ..errors import DataflowError
from .graph import DataflowGraph


def _static_latency(graph: DataflowGraph, name: str, iterations: int) -> float:
    task = graph.tasks[name]
    if callable(task.latency):
        return task.mean_latency(iterations)
    return float(task.latency)


def theoretical_initiation_interval(
    graph: DataflowGraph, iterations: int = 1
) -> float:
    """``II = max_k L_k`` (mean latency for data-dependent tasks)."""
    if not graph.tasks:
        raise DataflowError("graph has no tasks")
    return max(
        _static_latency(graph, name, iterations) for name in graph.tasks
    )


def pipeline_fill_cycles(graph: DataflowGraph, iterations: int = 1) -> float:
    """Latency of the first token: longest path through the task graph."""
    dist: dict[str, float] = {}
    for name in graph.topological_order():
        lat = _static_latency(graph, name, iterations)
        preds = [buf.producer for buf in graph.inputs_of(name)]
        if preds:
            dist[name] = lat + max(dist[p] for p in preds)
        else:
            dist[name] = lat
    return max(dist.values())


def steady_state_cycles(graph: DataflowGraph, iterations: int) -> float:
    """``fill + II * (iterations - 1)`` — the analytic total."""
    if iterations < 1:
        raise DataflowError("iterations must be >= 1")
    fill = pipeline_fill_cycles(graph, iterations)
    ii = theoretical_initiation_interval(graph, iterations)
    return fill + ii * (iterations - 1)


def sequential_cycles(graph: DataflowGraph, iterations: int) -> float:
    """Total cycles *without* TLP: every iteration runs all tasks serially.

    This is the paper's non-dataflow baseline behaviour (tasks execute
    back-to-back per element); the TLP speedup is
    ``sequential / steady_state``.
    """
    if iterations < 1:
        raise DataflowError("iterations must be >= 1")
    per_iteration = sum(
        _static_latency(graph, name, iterations) for name in graph.tasks
    )
    return per_iteration * iterations


def exact_cycles(graph: DataflowGraph, iterations) -> int:
    """Exact total cycles of a run, from the vectorized schedule engine.

    Unlike :func:`steady_state_cycles` this holds for *any* validated
    graph — fork/join topologies, finite buffer backpressure, uneven
    per-task iteration counts (an int or a per-task mapping), and
    ``depends_on`` sequencing — because it solves the schedule
    recurrences rather than a linear-pipeline closed form. It is the
    timing-only entry point for paper-scale graphs: no payloads run,
    and the count equals the event simulation's ``total_cycles`` by the
    engine-parity guarantee.

    Raises :class:`~repro.errors.DeadlockError` on infeasible counts.
    """
    from .schedule import (
        check_feasible,
        compute_schedule,
        normalize_iteration_counts,
    )

    graph.validate()
    counts = normalize_iteration_counts(graph, iterations)
    check_feasible(graph, counts)
    return compute_schedule(graph, counts).total_cycles
