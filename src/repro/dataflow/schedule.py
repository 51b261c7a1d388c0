"""Vectorized schedule engine: the dataflow run as array recurrences.

The event engine (:mod:`repro.dataflow.simulator`) walks a heap of
per-token completion events — exact, but every token costs Python-level
work, which caps co-simulation at toy meshes. This module computes the
*same* schedule in bulk: a :class:`DataflowGraph` is compiled into
per-task numpy arrays (latency per iteration, iteration counts,
dependency edges including :attr:`~repro.dataflow.task.Task.depends_on`)
and every start/finish time falls out of max-plus recurrences over whole
iteration axes.

The recurrence generalizes the tandem-pipeline law proven in
:func:`repro.accel.cosim.analytic_block_cycles` to arbitrary graphs.
With ``start[t][i]`` / ``finish[t][i]`` the cycle task ``t`` begins /
retires iteration ``i``::

    start[t][i] = max( finish[t][i-1],                    # serially busy
                       finish[p][i]   for every input buffer's producer,
                       start[c][i-C]  for every output buffer's consumer
                                      (capacity C; backpressure),
                       finish[d][last] for every depends_on task )
    finish[t][i] = start[t][i] + latency[t][i]

Per task the self-recurrence ``finish[i] = max(finish[i-1], o[i]) +
lat[i]`` closes into one vectorized pass via the cumulative-sum trick
``finish = L + running_max(o - L_shifted)`` with ``L = cumsum(lat)``, so
the only Python-level loop is over *tasks*, not tokens. Backpressure
edges point against the topological order, so the system is solved by
monotone (Kleene) sweeps to the least fixed point — each sweep
propagates backpressure one graph level, and real graphs converge in a
handful of sweeps.

Payload execution is decoupled from timing: once the schedule is known,
actions run in the computed start order (exactly the order the event
engine interleaves them), or — when every action advertises a
:attr:`batch <repro.pipeline.executor.streaming_actions>` form — one
batched numpy call per task replaces the per-token callbacks entirely.

:meth:`DataflowSimulator.run <repro.dataflow.simulator.DataflowSimulator.run>`
exposes this engine via ``engine="vectorized"`` (and picks it
automatically under ``engine="auto"``); the event engine remains the
oracle, and the two agree token-for-token on cycles, per-task stats and
sink results — asserted by the randomized parity harness in
``tests/dataflow/test_schedule_parity.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataflowError, DeadlockError
from .graph import DataflowGraph
from .task import TaskStats

def normalize_iteration_counts(
    graph: DataflowGraph, iterations
) -> dict[str, int]:
    """Validated per-task iteration counts (shared by both engines).

    ``iterations`` is an int applied to every task or a mapping that
    must cover the whole graph; counts must be >= 1.
    """
    from collections.abc import Mapping

    if isinstance(iterations, Mapping):
        missing = [n for n in graph.tasks if n not in iterations]
        if missing:
            raise DataflowError(
                f"graph {graph.name!r}: no iteration count for "
                f"task(s) {sorted(missing)}"
            )
        counts = {name: int(iterations[name]) for name in graph.tasks}
    else:
        counts = {name: int(iterations) for name in graph.tasks}
    for name, count in counts.items():
        if count < 1:
            raise DataflowError(
                f"task {name!r}: iterations must be >= 1, got {count}"
            )
    return counts


def check_feasible(graph: DataflowGraph, counts: dict[str, int]) -> None:
    """Reject token configurations the event engine would deadlock on.

    For an acyclic SPSC graph the run completes iff, per buffer, the
    consumer never out-consumes the producer and the producer's surplus
    tokens fit the buffer — checked edge-locally here so the vectorized
    engine can refuse exactly the runs the event engine reports as
    deadlocks (validation already guarantees acyclicity).
    """
    stuck: set[str] = set()
    for buf in graph.buffers.values():
        n_prod = counts[buf.producer]
        n_cons = counts[buf.consumer]
        if n_cons > n_prod:
            stuck.add(buf.consumer)  # starves after n_prod tokens
        if n_prod > n_cons + buf.capacity:
            stuck.add(buf.producer)  # blocks on the full buffer forever
    if stuck:
        raise DeadlockError(
            f"graph {graph.name!r}: infeasible iteration counts; "
            f"stuck tasks: {', '.join(sorted(stuck))}"
        )


@dataclass
class TaskSchedule:
    """One task's fully materialized schedule."""

    name: str
    count: int
    latencies: np.ndarray
    starts: np.ndarray
    finishes: np.ndarray
    #: Cycle the iteration's inputs (tokens + dependency gate) were all
    #: available — drives input-stall accounting.
    input_ready: np.ndarray
    #: Cycle every output slot was free — drives output-stall accounting.
    output_ready: np.ndarray

    def stats(self) -> TaskStats:
        """The event engine's :class:`TaskStats`, derived from arrays.

        Stall windows reproduce the event engine's attribution: an input
        window opens at the task's previous retirement whenever tokens
        are still missing then (closing at the start), and an output
        window opens the moment inputs are ready but a slot is not.
        """
        prev = np.empty_like(self.finishes)
        prev[0] = 0
        prev[1:] = self.finishes[:-1]
        input_stall = int(
            np.where(
                self.input_ready > prev, self.starts - prev, 0
            ).sum()
        )
        inputs_done = np.maximum(prev, self.input_ready)
        output_stall = int(
            np.where(
                self.output_ready > inputs_done,
                self.output_ready - inputs_done,
                0,
            ).sum()
        )
        return TaskStats(
            name=self.name,
            iterations_completed=self.count,
            busy_cycles=int(self.latencies.sum()),
            input_stall_cycles=input_stall,
            output_stall_cycles=output_stall,
            first_start=int(self.starts[0]),
            last_finish=int(self.finishes[-1]),
            finish_times=self.finishes.tolist(),
        )


@dataclass
class GraphSchedule:
    """The complete schedule of one run: every task, every iteration."""

    graph_name: str
    tasks: dict[str, TaskSchedule] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        """Cycle the last task retires its last iteration."""
        return max(int(t.finishes[-1]) for t in self.tasks.values())

    def task_stats(self) -> "LazyTaskStats":
        """Per-task stats, keyed and ordered like the event trace."""
        return LazyTaskStats(self.tasks)


class LazyTaskStats(Mapping):
    """Per-task stats, each derived from its schedule when first read.

    A co-simulation reads a few tasks' windows of a trace with dozens
    of tasks, so the vectorized trace derives no stats it is not asked
    for. Reads, iteration order and equality are those of the event
    engine's ``dict``.
    """

    def __init__(self, schedules: dict[str, TaskSchedule]) -> None:
        self._schedules = schedules
        self._stats: dict[str, TaskStats] = {}

    def __getitem__(self, name: str) -> TaskStats:
        try:
            return self._stats[name]
        except KeyError:
            stats = self._stats[name] = self._schedules[name].stats()
            return stats

    def __iter__(self):
        return iter(self._schedules)

    def __len__(self) -> int:
        return len(self._schedules)


# ---------------------------------------------------------------------------
# Compiled-schedule cache
# ---------------------------------------------------------------------------
#
# The streaming lowerings re-instantiate the *same* chain structure over
# and over — every RK stage, every chained step, and every DSE point
# sharing a (design, mesh, block size) signature rebuilds a graph whose
# task names differ (``k1.s2.cu0.load`` vs ``k1.s3.cu0.load``) but whose
# latency arrays, iteration counts, buffer edges and dependency edges
# are identical. The solved schedule depends only on that structure:
# names are labels, and the Kleene sweeps converge to the *least fixed
# point* of the recurrences, which is unique regardless of sweep order.
# So solved arrays are cached under a name-free structural signature and
# rebound to the requesting graph's task names on a hit — bitwise the
# same arrays a fresh solve would produce.

_SCHEDULE_CACHE: OrderedDict[tuple, tuple] = OrderedDict()
_SCHEDULE_CACHE_LOCK = threading.Lock()
_SCHEDULE_CACHE_CAPACITY = 128
_SCHEDULE_CACHE_ENABLED = True
_schedule_cache_hits = 0
_schedule_cache_misses = 0


def set_schedule_cache(enabled: bool) -> bool:
    """Enable/disable the compiled-schedule cache; returns the old state.

    Disabling makes every :func:`compute_schedule` call solve afresh —
    only useful for benchmarking the solve itself.
    """
    global _SCHEDULE_CACHE_ENABLED
    previous = _SCHEDULE_CACHE_ENABLED
    _SCHEDULE_CACHE_ENABLED = bool(enabled)
    return previous


def schedule_cache_stats() -> dict[str, int]:
    """Hit/miss/entry counts of the compiled-schedule cache."""
    with _SCHEDULE_CACHE_LOCK:
        return {
            "hits": _schedule_cache_hits,
            "misses": _schedule_cache_misses,
            "entries": len(_SCHEDULE_CACHE),
        }


def clear_schedule_cache() -> None:
    """Drop every cached schedule and zero the hit/miss counters."""
    global _schedule_cache_hits, _schedule_cache_misses
    with _SCHEDULE_CACHE_LOCK:
        _SCHEDULE_CACHE.clear()
        _schedule_cache_hits = 0
        _schedule_cache_misses = 0


def _structure_key(
    graph: DataflowGraph,
    counts: dict[str, int],
    lat: dict[str, np.ndarray],
) -> tuple:
    """Name-free structural signature of a (graph, counts) solve.

    Tasks are identified by their position in the graph's (insertion-
    ordered) task dict; buffers and dependencies become positional edge
    tuples, sorted so the signature is independent of declaration order.
    Latency arrays enter by value — they, the counts and the edges are
    the only inputs the recurrences read.
    """
    index = {name: i for i, name in enumerate(graph.tasks)}
    task_sig = tuple(
        (
            counts[name],
            lat[name].dtype.str,
            lat[name].tobytes(),
            tuple(sorted(index[d] for d in graph.tasks[name].depends_on)),
        )
        for name in graph.tasks
    )
    buffer_sig = tuple(
        sorted(
            (index[b.producer], index[b.consumer], b.capacity)
            for b in graph.buffers.values()
        )
    )
    return (task_sig, buffer_sig)


def _freeze(arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Mark solved arrays read-only so cache sharing stays safe."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def compute_schedule(
    graph: DataflowGraph, counts: dict[str, int]
) -> GraphSchedule:
    """Solve the start/finish recurrences for every task and iteration.

    Parameters
    ----------
    graph:
        A validated dataflow graph.
    counts:
        Per-task iteration counts (see :func:`normalize_iteration_counts`);
        must be feasible (:func:`check_feasible`).

    Returns
    -------
    GraphSchedule
        Exact start/finish cycles — token-for-token what the event
        engine computes, in O(tasks) numpy passes per sweep.
    """
    global _schedule_cache_hits, _schedule_cache_misses
    # Sweeping in buffer+dependency topological order resolves every
    # forward constraint in one pass; only backpressure (the one
    # backward-pointing constraint) needs extra sweeps.
    order = graph.topological_order(include_dependencies=True)
    lat = {name: graph.tasks[name].latency_array(counts[name]) for name in order}

    # The latency arrays are needed regardless (they are the signature's
    # bulk), so a cache hit skips exactly the fixed-point solve below.
    key = None
    if _SCHEDULE_CACHE_ENABLED:
        key = _structure_key(graph, counts, lat)
        with _SCHEDULE_CACHE_LOCK:
            cached = _SCHEDULE_CACHE.get(key)
            if cached is not None:
                _SCHEDULE_CACHE.move_to_end(key)
                _schedule_cache_hits += 1
        if cached is not None:
            return GraphSchedule(
                graph_name=graph.name,
                tasks={
                    name: TaskSchedule(
                        name=name,
                        count=counts[name],
                        latencies=lat[name],
                        starts=s,
                        finishes=f,
                        input_ready=rin,
                        output_ready=rout,
                    )
                    for name, (s, f, rin, rout) in zip(graph.tasks, cached)
                },
            )

    cum = {name: np.cumsum(lat[name]) for name in order}
    shift = {name: cum[name] - lat[name] for name in order}

    producers = {name: [b.producer for b in graph.inputs_of(name)] for name in order}
    consumers = {
        name: [(b.consumer, b.capacity) for b in graph.outputs_of(name)]
        for name in order
    }
    deps = {name: graph.tasks[name].depends_on for name in order}

    starts = {name: cum[name] - lat[name] for name in order}
    finishes = {name: cum[name].copy() for name in order}
    ready_in = {name: np.zeros(counts[name], dtype=np.int64) for name in order}
    ready_out = {name: np.zeros(counts[name], dtype=np.int64) for name in order}

    # Any feasible run keeps at least one task busy every cycle, so no
    # finish can exceed the serial sum of all latencies. The monotone
    # sweeps are integer-valued and bounded by the least fixed point, so
    # they terminate; a gated cycle the edge-local feasibility check
    # cannot see (depends_on against backpressure) instead grows past
    # this bound — the divergence IS the deadlock, reported as such.
    serial_bound = sum(int(l.sum()) for l in lat.values())
    while True:
        changed = False
        for name in order:
            n = counts[name]
            rin = np.zeros(n, dtype=np.int64)
            for producer in producers[name]:
                np.maximum(rin, finishes[producer][:n], out=rin)
            for dep in deps[name]:
                gate = finishes[dep][-1]
                np.maximum(rin, gate, out=rin)
            rout = np.zeros(n, dtype=np.int64)
            for consumer, capacity in consumers[name]:
                if n > capacity:
                    np.maximum(
                        rout[capacity:],
                        starts[consumer][: n - capacity],
                        out=rout[capacity:],
                    )
            bound = np.maximum(rin, rout)
            new_fin = cum[name] + np.maximum.accumulate(bound - shift[name])
            if not np.array_equal(new_fin, finishes[name]):
                changed = True
                finishes[name] = new_fin
                starts[name] = new_fin - lat[name]
            ready_in[name] = rin
            ready_out[name] = rout
        if not changed:
            break
        if any(int(finishes[name][-1]) > serial_bound for name in order):
            stuck = sorted(
                name
                for name in order
                if int(finishes[name][-1]) > serial_bound
            )
            raise DeadlockError(
                f"graph {graph.name!r}: deadlock (kernel dependencies "
                "and buffer backpressure cannot all be satisfied); "
                f"stuck tasks: {', '.join(stuck)}"
            )

    if key is not None:
        entry = tuple(
            _freeze(
                (
                    starts[name],
                    finishes[name],
                    ready_in[name],
                    ready_out[name],
                )
            )
            for name in graph.tasks
        )
        with _SCHEDULE_CACHE_LOCK:
            _schedule_cache_misses += 1
            _SCHEDULE_CACHE[key] = entry
            _SCHEDULE_CACHE.move_to_end(key)
            while len(_SCHEDULE_CACHE) > _SCHEDULE_CACHE_CAPACITY:
                _SCHEDULE_CACHE.popitem(last=False)

    return GraphSchedule(
        graph_name=graph.name,
        tasks={
            name: TaskSchedule(
                name=name,
                count=counts[name],
                latencies=lat[name],
                starts=starts[name],
                finishes=finishes[name],
                input_ready=ready_in[name],
                output_ready=ready_out[name],
            )
            for name in graph.tasks  # preserve the graph's task order
        },
    )


# ---------------------------------------------------------------------------
# Payload execution against a computed schedule
# ---------------------------------------------------------------------------


def _batchable(graph: DataflowGraph, counts: dict[str, int]) -> bool:
    """Whether every payload-carrying component can run batched.

    A weakly-connected component (via buffers) is batch-eligible when
    every one of its tasks carries an action with a ``batch`` form and
    all its tasks run the same iteration count — the contract of the
    streaming lowerings. Components without any action carry no
    payloads and are ignored.
    """
    component: dict[str, str] = {name: name for name in graph.tasks}

    def find(name: str) -> str:
        while component[name] != name:
            component[name] = component[component[name]]
            name = component[name]
        return name

    for buf in graph.buffers.values():
        component[find(buf.producer)] = find(buf.consumer)
    members: dict[str, list[str]] = {}
    for name in graph.tasks:
        members.setdefault(find(name), []).append(name)
    for names in members.values():
        if not any(graph.tasks[n].action is not None for n in names):
            continue
        if len({counts[n] for n in names}) != 1:
            return False
        for n in names:
            action = graph.tasks[n].action
            if action is None or getattr(action, "batch", None) is None:
                return False
    return True


def _execute_batched(
    graph: DataflowGraph, counts: dict[str, int]
) -> dict[str, list]:
    """One batched call per task, in combined topological order.

    Tasks run in a topological order of buffer *and* dependency edges,
    so a chain sequenced behind another (``depends_on``) executes after
    it — the same side-effect ordering the schedule guarantees. Each
    ``action.batch(iterations, inputs)`` receives the producers' batch
    values and returns its own; a sink's batch value must be the list of
    its per-token results (what the event engine accumulates in
    ``sink_results``).
    """
    order = graph.topological_order(include_dependencies=True)

    batch_out: dict[str, object] = {}
    sink_results: dict[str, list] = {}
    for name in order:
        task = graph.tasks[name]
        if task.action is None:
            continue  # an actionless component carries no payloads
        inputs = tuple(
            batch_out[buf.producer] for buf in graph.inputs_of(name)
        )
        value = task.action.batch(counts[name], inputs)
        if graph.outputs_of(name):
            batch_out[name] = value
        else:
            results = list(value)
            if len(results) != counts[name]:
                raise DataflowError(
                    f"task {name!r}: batch action returned "
                    f"{len(results)} sink value(s) for {counts[name]} "
                    "iterations"
                )
            sink_results[name] = results
    return sink_results


def _execute_in_start_order(
    graph: DataflowGraph, counts: dict[str, int], schedule: GraphSchedule
) -> dict[str, list]:
    """Per-token actions replayed in the computed start order.

    Token payloads travel FIFO through per-buffer queues exactly as in
    the event engine; because every consumer start is scheduled at or
    after its producers' finishes, replaying tokens sorted by start
    cycle (ties broken by topological position) always finds the
    consumed payloads already produced.
    """
    order = graph.topological_order()
    position = {name: k for k, name in enumerate(order)}
    names: list[str] = []
    all_starts: list[np.ndarray] = []
    all_pos: list[np.ndarray] = []
    all_iter: list[np.ndarray] = []
    for name in order:
        sched = schedule.tasks[name]
        names.append(name)
        all_starts.append(sched.starts)
        all_pos.append(np.full(sched.count, position[name], dtype=np.int64))
        all_iter.append(np.arange(sched.count, dtype=np.int64))
    starts = np.concatenate(all_starts)
    pos = np.concatenate(all_pos)
    iters = np.concatenate(all_iter)
    run_order = np.lexsort((iters, pos, starts))

    inputs_of = {name: graph.inputs_of(name) for name in order}
    outputs_of = {name: graph.outputs_of(name) for name in order}
    payloads: dict[str, deque] = {name: deque() for name in graph.buffers}
    sink_results: dict[str, list] = {
        name: []
        for name, task in graph.tasks.items()
        if task.action is not None and not outputs_of[name]
    }
    tasks = graph.tasks
    for k in run_order:
        name = names[pos[k]]
        iteration = int(iters[k])
        task = tasks[name]
        args = tuple(payloads[buf.name].popleft() for buf in inputs_of[name])
        if task.action is not None:
            value = task.action(iteration, args)
        elif len(args) == 1:
            value = args[0]
        else:
            value = args if args else None
        for buf in outputs_of[name]:
            payloads[buf.name].append(value)
        if name in sink_results:
            sink_results[name].append(value)
    return sink_results


def run_vectorized(
    graph: DataflowGraph,
    counts: dict[str, int],
    max_cycles: int | None = None,
):
    """Run the vectorized engine end to end; returns a ``SimulationTrace``.

    The trace is field-for-field what the event engine produces on the
    same run: total cycles, per-task stats (stall attribution included)
    and sink results. Raises :class:`~repro.errors.DeadlockError` on
    infeasible iteration counts and :class:`~repro.errors.DataflowError`
    when the schedule exceeds ``max_cycles``.
    """
    from .simulator import SimulationTrace

    check_feasible(graph, counts)
    schedule = compute_schedule(graph, counts)
    total = schedule.total_cycles
    if max_cycles is not None and total > max_cycles:
        raise DataflowError(
            f"graph {graph.name!r}: exceeded max_cycles={max_cycles}"
        )
    if any(task.action is not None for task in graph.tasks.values()):
        if _batchable(graph, counts):
            sink_results = _execute_batched(graph, counts)
        else:
            sink_results = _execute_in_start_order(graph, counts, schedule)
    else:
        sink_results = {}
    return SimulationTrace(
        graph_name=graph.name,
        iterations=max(counts.values()),
        total_cycles=total,
        task_stats=schedule.task_stats(),
        sink_results=sink_results,
    )
