"""The dataflow task graph and the paper's structural validity rules.

Section III-B of the paper states two conditions for deadlock-free TLP:

1. **Single-Producer-Single-Consumer** — every inter-task buffer has
   exactly one producing and one consuming task;
2. **No bypass** — buffers "do not bypass any tasks and transfer data
   sequentially": there must be no channel from task A directly to task C
   when another path A -> B -> C exists, because the A->C data would race
   ahead of the pipeline.

:meth:`DataflowGraph.validate` enforces both (plus acyclicity), raising
:class:`~repro.errors.DataflowValidationError` with a precise message.

Every topological order here comes from :func:`kahn_order`, the one
FIFO Kahn sort that the pipeline IR shares.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from ..errors import DataflowValidationError
from .buffer import Buffer
from .task import Task


def kahn_order(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list | None:
    """Topological order by FIFO Kahn, or ``None`` if the edges close a
    cycle.

    The order is deterministic: the queue starts with the sources in
    ``nodes`` order, and each node releases its successors in the order
    their first edge appears in ``edges``. Repeated edges count once,
    and an edge endpoint missing from ``nodes`` joins them at first
    mention.
    """
    successors: dict = {node: {} for node in nodes}
    for u, v in edges:
        successors.setdefault(u, {})[v] = None
        successors.setdefault(v, {})
    indegree = dict.fromkeys(successors, 0)
    for targets in successors.values():
        for v in targets:
            indegree[v] += 1
    queue = deque(node for node, degree in indegree.items() if degree == 0)
    order = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for v in successors[node]:
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    return order if len(order) == len(successors) else None


@dataclass
class DataflowGraph:
    """A named collection of tasks wired by SPSC buffers."""

    name: str
    tasks: dict[str, Task] = field(default_factory=dict)
    buffers: dict[str, Buffer] = field(default_factory=dict)

    # -- construction ----------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Add a task; names must be unique."""
        if task.name in self.tasks:
            raise DataflowValidationError(
                f"graph {self.name!r}: duplicate task {task.name!r}"
            )
        self.tasks[task.name] = task
        return task

    def add_buffer(self, buffer: Buffer) -> Buffer:
        """Add a buffer; endpoints must exist and names be unique."""
        if buffer.name in self.buffers:
            raise DataflowValidationError(
                f"graph {self.name!r}: duplicate buffer {buffer.name!r}"
            )
        for endpoint in (buffer.producer, buffer.consumer):
            if endpoint not in self.tasks:
                raise DataflowValidationError(
                    f"graph {self.name!r}: buffer {buffer.name!r} references "
                    f"unknown task {endpoint!r}"
                )
        self.buffers[buffer.name] = buffer
        return buffer

    def chain(self, tasks: list[Task], buffer_prefix: str = "b") -> None:
        """Add ``tasks`` and connect them linearly with PIPO buffers."""
        from .buffer import pipo

        for task in tasks:
            self.add_task(task)
        for idx in range(len(tasks) - 1):
            self.add_buffer(
                pipo(
                    f"{buffer_prefix}_{tasks[idx].name}_to_{tasks[idx + 1].name}",
                    tasks[idx].name,
                    tasks[idx + 1].name,
                )
            )

    # -- queries ---------------------------------------------------------------

    def inputs_of(self, task_name: str) -> list[Buffer]:
        """Buffers consumed by the task."""
        return [b for b in self.buffers.values() if b.consumer == task_name]

    def outputs_of(self, task_name: str) -> list[Buffer]:
        """Buffers produced by the task."""
        return [b for b in self.buffers.values() if b.producer == task_name]

    def _edges(self, include_dependencies: bool) -> list[tuple[str, str]]:
        """Buffer edges in insertion order, then ``depends_on`` edges in
        task order."""
        edges = [(b.producer, b.consumer) for b in self.buffers.values()]
        if include_dependencies:
            edges += [
                (dep, task.name)
                for task in self.tasks.values()
                for dep in task.depends_on
            ]
        return edges

    def topological_order(
        self, include_dependencies: bool = False
    ) -> list[str]:
        """Tasks in a topological order (validates acyclicity).

        With ``include_dependencies`` the order also respects
        :attr:`~repro.dataflow.task.Task.depends_on` edges — every task
        sorts after the tasks it is kernel-sequenced behind. This is the
        order the vectorized schedule engine sweeps in (one pass
        resolves every forward constraint) and the order batched payload
        execution runs chains in.
        """
        order = kahn_order(self.tasks, self._edges(include_dependencies))
        if order is None:
            raise DataflowValidationError(
                f"graph {self.name!r}: contains a cycle"
            )
        return order

    # -- validation (the paper's TLP legality rules) -----------------------------

    def validate(self) -> None:
        """Check all structural rules; raise on the first violation."""
        if not self.tasks:
            raise DataflowValidationError(f"graph {self.name!r}: has no tasks")
        self._validate_spsc()
        self.topological_order()  # acyclicity
        self._validate_no_bypass()
        self._validate_dependencies()

    def _validate_spsc(self) -> None:
        """Single-Producer-Single-Consumer per channel *pair*.

        Each buffer object is SPSC by construction; here we reject two
        different buffers carrying the same producer->consumer pair, which
        would make the consumer a multi-reader of one logical stream.
        """
        seen: dict[tuple[str, str], str] = {}
        for buf in self.buffers.values():
            key = (buf.producer, buf.consumer)
            if key in seen:
                raise DataflowValidationError(
                    f"graph {self.name!r}: buffers {seen[key]!r} and "
                    f"{buf.name!r} duplicate the channel {key[0]!r} -> {key[1]!r}, "
                    "violating Single-Producer-Single-Consumer"
                )
            seen[key] = buf.name

    def _validate_no_bypass(self) -> None:
        """Reject buffers that skip over intermediate tasks.

        A buffer A -> C is a bypass when another path A -> ... -> C of
        length >= 2 exists in the graph: C is reachable from one of A's
        other successors.
        """
        successors: dict[str, list[str]] = {name: [] for name in self.tasks}
        for buf in self.buffers.values():
            successors[buf.producer].append(buf.consumer)
        for buf in self.buffers.values():
            stack = [
                s for s in successors[buf.producer] if s != buf.consumer
            ]
            seen = set(stack)
            while stack and buf.consumer not in seen:
                for nxt in successors[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if buf.consumer in seen:
                raise DataflowValidationError(
                    f"graph {self.name!r}: buffer {buf.name!r} "
                    f"({buf.producer!r} -> {buf.consumer!r}) bypasses "
                    "intermediate tasks, violating the sequential-transfer rule"
                )

    def _validate_dependencies(self) -> None:
        """Check kernel-sequencing dependencies (``Task.depends_on``).

        Every named dependency must be a task of this graph, and the
        combined precedence relation — buffer edges plus dependency
        edges — must stay acyclic, or the gated tasks could never start.
        """
        for task in self.tasks.values():
            for dep in task.depends_on:
                if dep not in self.tasks:
                    raise DataflowValidationError(
                        f"graph {self.name!r}: task {task.name!r} depends on "
                        f"unknown task {dep!r}"
                    )
                if dep == task.name:
                    raise DataflowValidationError(
                        f"graph {self.name!r}: task {task.name!r} depends on "
                        "itself"
                    )
        if kahn_order(self.tasks, self._edges(True)) is None:
            raise DataflowValidationError(
                f"graph {self.name!r}: buffer and dependency edges form a "
                "cycle"
            )

    # -- reporting ---------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line structural description used by design reports."""
        lines = [f"dataflow graph {self.name!r}"]
        for name in self.topological_order():
            task = self.tasks[name]
            ins = ", ".join(b.name for b in self.inputs_of(name)) or "-"
            outs = ", ".join(b.name for b in self.outputs_of(name)) or "-"
            lat = "var" if callable(task.latency) else str(task.latency)
            lines.append(
                f"  task {name:<28} kind={task.kind:<8} latency={lat:<8} "
                f"in=[{ins}] out=[{outs}]"
            )
        return "\n".join(lines)


def merge_graphs(name: str, graphs: list[DataflowGraph]) -> DataflowGraph:
    """Combine disjoint task graphs into one graph under one clock.

    The merged graph holds every task and buffer of the inputs; task and
    buffer names must be globally unique (a multi-CU lowering prefixes
    them per compute unit). Simulating the merged graph runs all
    component pipelines against a single cycle counter — this is how
    sharded compute units co-simulate concurrently, with the trace's
    ``total_cycles`` the cycle the slowest shard drains.

    Raises :class:`~repro.errors.DataflowValidationError` on any name
    collision across the inputs.
    """
    merged = DataflowGraph(name=name)
    for graph in graphs:
        for task in graph.tasks.values():
            merged.add_task(task)
        for buffer in graph.buffers.values():
            merged.add_buffer(buffer)
    return merged
