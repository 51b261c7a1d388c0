"""Cycle-level simulation of a TLP dataflow graph.

Event-driven semantics, matching Vitis dataflow execution:

- a task may *start* iteration ``i`` when every input buffer holds a
  token and every output buffer has a free slot (the PIPO bank it will
  write is reserved for the task's whole execution);
- at start it pops one token per input and reserves one slot per output;
- after its per-iteration latency it commits the reserved output tokens,
  waking downstream consumers.

Sources (tasks without input buffers) generate one token per iteration
until the configured iteration count. The simulator records complete
stall accounting and detects deadlock (no progress while work remains),
which is how the validity rules of Section III-B manifest dynamically.

When any task carries an :attr:`~repro.dataflow.task.Task.action`, the
simulation also *executes*: payloads ride the tokens (consumed at task
start, committed at task finish, FIFO per buffer), so one run produces
both the cycle count and the computed data. This is what lets the
accelerator co-simulation stream real mesh elements through the same
graph its timing model prices.

Two engines produce the identical :class:`SimulationTrace`:

- ``engine="event"`` — the per-token heap walk above, the oracle, and
  the engine for payload actions without a batch form;
- ``engine="vectorized"`` — the array-recurrence schedule engine
  (:mod:`repro.dataflow.schedule`), which computes all start/finish
  times in bulk numpy passes and runs payloads as one batched call per
  task (it refuses actions without a batch form). This is what scales
  co-simulation from toy meshes to paper-scale ones.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..errors import DataflowError, DeadlockError
from .graph import DataflowGraph
from .schedule import normalize_iteration_counts, run_vectorized
from .task import TaskStats

ENGINES = ("event", "vectorized")


@dataclass
class SimulationTrace:
    """Result of one cycle-level run."""

    graph_name: str
    #: Max per-task iteration count — the token count of the longest
    #: chain when tasks ran uneven counts (per-task actuals are in
    #: ``task_stats[...].iterations_completed``).
    iterations: int
    total_cycles: int
    #: Per-task stats; the vectorized engine derives each on first read
    #: (:class:`~repro.dataflow.schedule.LazyTaskStats`).
    task_stats: Mapping[str, TaskStats] = field(default_factory=dict)
    #: Per sink task with an action: the values it produced, in order.
    sink_results: dict[str, list] = field(default_factory=dict)

    def stats(self, task_name: str) -> TaskStats:
        """Stats of one task."""
        try:
            return self.task_stats[task_name]
        except KeyError:
            raise DataflowError(f"no stats for task {task_name!r}") from None

    def report(self) -> str:
        """Human-readable per-task table."""
        uneven = len(
            {st.iterations_completed for st in self.task_stats.values()}
        ) > 1
        lines = [
            f"dataflow simulation of {self.graph_name!r}: "
            f"{'up to ' if uneven else ''}{self.iterations} iterations "
            f"in {self.total_cycles} cycles",
            "task                            iters     busy   in-stall  out-stall  occupancy",
        ]
        for name, st in self.task_stats.items():
            lines.append(
                f"{name:<28} {st.iterations_completed:>8} "
                f"{st.busy_cycles:>8} {st.input_stall_cycles:>9} "
                f"{st.output_stall_cycles:>10} {st.occupancy:>9.3f}"
            )
        return "\n".join(lines)


class DataflowSimulator:
    """Runs a validated :class:`DataflowGraph` for N pipeline iterations."""

    def __init__(self, graph: DataflowGraph) -> None:
        graph.validate()
        self.graph = graph

    def run(
        self,
        iterations: int | Mapping[str, int],
        max_cycles: int | None = None,
        engine: str = "event",
    ) -> SimulationTrace:
        """Simulate tokens through the pipeline.

        ``iterations`` is either one count applied to every task (a
        single pipeline processing that many tokens) or a mapping from
        task name to its own count. Per-task counts are what let several
        disconnected task chains — the sharded compute units of a
        multi-CU co-simulation — run under *one* simulator clock even
        when their shards are uneven: each chain retires its own token
        count and the trace's ``total_cycles`` is the cycle the last
        chain drains. A mapping must cover every task in the graph.

        ``max_cycles`` bounds runaway simulations (a safety net for
        data-dependent latency models); exceeding it raises
        :class:`DataflowError`.

        ``engine`` selects the execution strategy: ``"event"`` (the
        per-token oracle, the default) or ``"vectorized"`` (the array
        schedule engine of :mod:`repro.dataflow.schedule` — identical
        trace, bulk numpy cost; payload actions need a batch form).
        """
        if engine not in ENGINES:
            raise DataflowError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        graph = self.graph
        counts = normalize_iteration_counts(graph, iterations)
        if engine == "vectorized":
            return run_vectorized(graph, counts, max_cycles)
        return self._run_event(counts, max_cycles)

    def _run_event(
        self,
        counts: dict[str, int],
        max_cycles: int | None = None,
    ) -> SimulationTrace:
        """The event engine: a heap of completion events plus a ready
        worklist.

        Start attempts are driven by a per-cycle worklist (processed in
        topological order) instead of rescanning every task per event
        batch: a retirement wakes the retired task, its token consumers
        and its dependents, and a start wakes the producers whose output
        slot it freed — so a slot freed by a same-cycle consumption is
        seen the same cycle. The worklist is both the profiled micro-opt
        (the full-graph ready scan dominated large merged graphs) and
        what keeps the event semantics aligned with the vectorized
        recurrence: a task starts the cycle its last constraint clears.
        """
        graph = self.graph
        order = graph.topological_order()
        position = {name: idx for idx, name in enumerate(order)}
        names = list(graph.tasks)
        index = {name: idx for idx, name in enumerate(names)}
        num_tasks = len(names)
        tasks = [graph.tasks[name] for name in names]
        topo_pos = [position[name] for name in names]
        count = [counts[name] for name in names]

        buffer_names = list(graph.buffers)
        buffer_index = {name: idx for idx, name in enumerate(buffer_names)}
        capacity = [graph.buffers[name].capacity for name in buffer_names]
        buf_consumer = [
            index[graph.buffers[name].consumer] for name in buffer_names
        ]
        inputs = [
            [buffer_index[b.name] for b in graph.inputs_of(name)]
            for name in names
        ]
        outputs = [
            [buffer_index[b.name] for b in graph.outputs_of(name)]
            for name in names
        ]
        #: Tasks to wake when this task starts (their output slot freed).
        upstream = [
            [index[graph.buffers[buffer_names[b]].producer] for b in inputs[i]]
            for i in range(num_tasks)
        ]
        deps = [
            [index[dep] for dep in tasks[i].depends_on]
            for i in range(num_tasks)
        ]
        dependents: list[list[int]] = [[] for _ in range(num_tasks)]
        for i in range(num_tasks):
            for dep in deps[i]:
                dependents[dep].append(i)

        occupancy = [0] * len(buffer_names)
        committed = [0] * len(buffer_names)
        started = [0] * num_tasks
        finished = [0] * num_tasks
        busy = [False] * num_tasks
        stats = [TaskStats(name=name) for name in names]
        stall_since_input: list[int | None] = [0] * num_tasks
        stall_since_output: list[int | None] = [None] * num_tasks
        #: Constant per-iteration latency, or None for callable models
        #: (avoids a latency_at call per start on the common case).
        const_latency = [
            None if callable(task.latency) else int(task.latency)
            for task in tasks
        ]
        actions = [task.action for task in tasks]

        # Payload execution: only tracked when some task computes.
        executing = any(t.action is not None for t in tasks)
        payloads: list[deque] | None = (
            [deque() for _ in buffer_names] if executing else None
        )
        in_flight: list[object] = [None] * num_tasks
        sink_results: dict[str, list] = {
            names[i]: []
            for i in range(num_tasks)
            if executing and tasks[i].action is not None and not outputs[i]
        }

        # Completion-event heap: (finish_time, seq, task_index).
        events: list[tuple[int, int, int]] = []
        seq = itertools.count()
        now = 0

        # Ready worklist for the current cycle: the candidates woken by
        # this cycle's retirements (and by same-cycle consumptions that
        # free upstream slots), processed in topological order so
        # same-cycle starts stay deterministic. A plain list + sort per
        # cycle beats a heap here — the list is tiny and churned hard.
        ready: list[int] = []
        queued = [False] * num_tasks
        heappush = heapq.heappush
        heappop = heapq.heappop
        next_seq = seq.__next__

        def try_start(i: int) -> None:
            """Start task ``i`` now if it can; else open a stall window."""
            if busy[i] or started[i] >= count[i]:
                return
            blocked = None
            # Kernel-sequencing dependencies gate the whole task: every
            # named predecessor must have retired all its iterations
            # (stalls attributed to the input side, like an empty FIFO).
            for dep in deps[i]:
                if finished[dep] < count[dep]:
                    blocked = stall_since_input
                    break
            if blocked is None:
                for b in inputs[i]:
                    if committed[b] < 1:
                        blocked = stall_since_input
                        break
            if blocked is None:
                for b in outputs[i]:
                    if occupancy[b] >= capacity[b]:
                        blocked = stall_since_output
                        break
            if blocked is not None:
                if blocked[i] is None:
                    blocked[i] = now
                return
            iteration = started[i]
            started[i] = iteration + 1
            for b in inputs[i]:
                committed[b] -= 1
                occupancy[b] -= 1
            for b in outputs[i]:
                occupancy[b] += 1  # reserve the slot
            if payloads is not None:
                args = tuple(payloads[b].popleft() for b in inputs[i])
                action = actions[i]
                if action is not None:
                    in_flight[i] = action(iteration, args)
                elif len(args) == 1:
                    in_flight[i] = args[0]
                else:
                    in_flight[i] = args if args else None
            latency = const_latency[i]
            if latency is None:
                latency = tasks[i].latency_at(iteration)
            heappush(events, (now + latency, next_seq(), i))
            busy[i] = True
            st = stats[i]
            if st.first_start is None:
                st.first_start = now
            st.busy_cycles += latency
            # close any open stall window
            if stall_since_input[i] is not None:
                st.input_stall_cycles += now - stall_since_input[i]
                stall_since_input[i] = None
            if stall_since_output[i] is not None:
                st.output_stall_cycles += now - stall_since_output[i]
                stall_since_output[i] = None
            # The freed input slots may unblock the upstream producers
            # this same cycle.
            for producer in upstream[i]:
                if not queued[producer]:
                    queued[producer] = True
                    ready.append(producer)

        def retire(i: int) -> None:
            """Commit a finished iteration: tokens, payloads, stats."""
            busy[i] = False
            finished[i] += 1
            if payloads is not None:
                value = in_flight[i]
                in_flight[i] = None
            else:
                value = None
            for b in outputs[i]:
                committed[b] += 1  # commit the reserved token
                if payloads is not None:
                    payloads[b].append(value)
                consumer = buf_consumer[b]
                if not queued[consumer]:
                    queued[consumer] = True
                    ready.append(consumer)
            name = names[i]
            if name in sink_results:
                sink_results[name].append(value)
            st = stats[i]
            st.iterations_completed += 1
            st.last_finish = now
            st.finish_times.append(now)
            if finished[i] < count[i]:
                if not queued[i]:
                    queued[i] = True
                    ready.append(i)
            elif dependents[i]:
                for dependent in dependents[i]:
                    if not queued[dependent]:
                        queued[dependent] = True
                        ready.append(dependent)

        total_needed = sum(count)
        total_finished = 0
        ready.extend(range(num_tasks))
        for i in ready:
            queued[i] = True
        while True:
            # Drain the worklist in topological order; starts may wake
            # upstream producers, which re-enter the (re-sorted) list.
            while ready:
                ready.sort(key=topo_pos.__getitem__)
                batch, ready = ready, []
                for i in batch:
                    queued[i] = False
                    try_start(i)
            if total_finished >= total_needed:
                break
            if not events:
                stuck = [
                    names[i]
                    for i in range(num_tasks)
                    if finished[i] < count[i]
                ]
                raise DeadlockError(
                    f"graph {graph.name!r}: deadlock at cycle {now}; "
                    f"stuck tasks: {', '.join(sorted(stuck))}"
                )
            now, _, i = heappop(events)
            if max_cycles is not None and now > max_cycles:
                raise DataflowError(
                    f"graph {graph.name!r}: exceeded max_cycles={max_cycles}"
                )
            retire(i)
            total_finished += 1
            # Batch-process any events that complete at the same cycle so
            # start decisions see a consistent buffer state.
            while events and events[0][0] == now:
                _, _, other = heappop(events)
                retire(other)
                total_finished += 1

        return SimulationTrace(
            graph_name=graph.name,
            iterations=max(count),
            total_cycles=now,
            task_stats={names[i]: stats[i] for i in range(num_tasks)},
            sink_results=sink_results,
        )
