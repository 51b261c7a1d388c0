"""Tasks: the pipeline stages of the TLP model.

A task consumes one token from every input buffer, occupies itself for
its per-iteration latency, then deposits one token into every output
buffer. Latency may be constant or iteration-dependent (data-dependent
tasks such as a LOAD stage whose burst efficiency varies).

Tokens may carry *payloads*: a task with an :attr:`Task.action` computes
a value from its consumed payloads each iteration and commits it with
its output tokens, so the same graph the simulator prices can execute
real data (functional co-simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import DataflowError

LatencyModel = Callable[[int], int]


@dataclass
class BlockLatency:
    """Iteration-dependent latency the schedule engine can vectorize.

    The streaming lowerings scale a per-unit latency by each token's
    block size (elements or nodes per token) and optionally charge a
    one-off kernel-launch fill on the first token. Encoding that model
    as *data* instead of a closure lets the vectorized schedule engine
    evaluate every iteration's latency in one numpy expression
    (:meth:`array`), while :meth:`__call__` keeps the instance a plain
    ``LatencyModel`` for the event engine.

    Attributes
    ----------
    cycles_per_unit:
        Latency contributed by one unit (element / node) of a token.
    sizes:
        Units per token, in stream order (``None`` = one unit per
        token, i.e. a constant per-iteration latency).
    first_extra:
        Extra cycles charged on iteration 0 only (kernel-launch fill).
    """

    cycles_per_unit: float
    sizes: np.ndarray | None = None
    first_extra: int = 0

    def __post_init__(self) -> None:
        if self.sizes is not None:
            self.sizes = np.asarray(self.sizes, dtype=np.int64)
        self.first_extra = int(self.first_extra)
        if self.first_extra < 0:
            raise DataflowError(
                f"first_extra must be >= 0, got {self.first_extra}"
            )

    def __call__(self, iteration: int) -> int:
        size = 1 if self.sizes is None else int(self.sizes[iteration])
        base = max(1, round(self.cycles_per_unit * size))
        return base + (self.first_extra if iteration == 0 else 0)

    def array(self, iterations: int) -> np.ndarray:
        """Latency of iterations ``0..iterations-1`` as one int64 array.

        Exactly :meth:`__call__` evaluated elementwise (``np.rint`` and
        Python's ``round`` share round-half-even semantics), so the
        vectorized schedule engine prices every token the event engine
        would.
        """
        if self.sizes is None:
            sizes = np.ones(iterations, dtype=np.int64)
        else:
            if iterations > self.sizes.size:
                raise DataflowError(
                    f"latency model covers {self.sizes.size} iterations, "
                    f"{iterations} requested"
                )
            sizes = self.sizes[:iterations]
        out = np.maximum(
            1, np.rint(self.cycles_per_unit * sizes).astype(np.int64)
        )
        if iterations > 0 and self.first_extra:
            out[0] += self.first_extra
        return out


@dataclass
class Task:
    """One TLP stage.

    Attributes
    ----------
    name:
        Unique task name within its graph.
    latency:
        Cycles per iteration — either a positive integer or a callable
        mapping the iteration index to a positive integer.
    kind:
        Free-form role label (``load``, ``compute``, ``store``) used by
        reports and by the memory-contention model.
    action:
        Optional payload function ``action(iteration, inputs) -> value``
        where ``inputs`` is the tuple of payloads consumed from the
        input buffers this iteration (empty for sources). The returned
        value is committed with the task's output tokens when the
        iteration finishes; sink values are collected in
        :attr:`~repro.dataflow.simulator.SimulationTrace.sink_results`.
        Tasks without an action pass their single input payload through
        unchanged (``None`` for sources).
    depends_on:
        Kernel-sequencing dependencies: names of tasks that must retire
        *all* their iterations before this task may start its first.
        This is the host-runtime event ordering between separately
        enqueued kernels (an RKL kernel must drain before the RKU kernel
        launches) — a coarser coupling than the token-by-token FIFO of a
        buffer, which is why it is not modeled as one.
    """

    name: str
    latency: int | LatencyModel
    kind: str = "compute"
    action: Callable[[int, tuple], object] | None = None
    depends_on: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise DataflowError("task name must be non-empty")
        self.depends_on = tuple(self.depends_on)
        if isinstance(self.latency, int) and self.latency < 1:
            raise DataflowError(
                f"task {self.name!r}: latency must be >= 1, got {self.latency}"
            )

    def latency_at(self, iteration: int) -> int:
        """Latency of the given iteration."""
        if callable(self.latency):
            value = int(self.latency(iteration))
        else:
            value = int(self.latency)
        if value < 1:
            raise DataflowError(
                f"task {self.name!r}: latency at iteration {iteration} "
                f"must be >= 1, got {value}"
            )
        return value

    def latency_array(self, iterations: int) -> np.ndarray:
        """Latencies of iterations ``0..iterations-1`` as one int64 array.

        The schedule engine's view of the task: constants broadcast,
        :class:`BlockLatency` models vectorize, and generic callables
        fall back to per-iteration evaluation (validated like
        :meth:`latency_at`).
        """
        if isinstance(self.latency, BlockLatency):
            try:
                return self.latency.array(iterations)
            except DataflowError as exc:
                raise DataflowError(f"task {self.name!r}: {exc}") from None
        if not callable(self.latency):
            return np.full(iterations, int(self.latency), dtype=np.int64)
        out = np.fromiter(
            (self.latency_at(i) for i in range(iterations)),
            dtype=np.int64,
            count=iterations,
        )
        return out

    def max_latency(self, iterations: int) -> int:
        """Maximum latency over the given iteration count."""
        if not callable(self.latency):
            return int(self.latency)
        return int(self.latency_array(iterations).max())

    def mean_latency(self, iterations: int) -> float:
        """Average latency over the given iteration count."""
        if not callable(self.latency):
            return float(self.latency)
        return float(self.latency_array(iterations).mean())


@dataclass
class TaskStats:
    """Per-task cycle accounting produced by the simulator."""

    name: str
    iterations_completed: int = 0
    busy_cycles: int = 0
    input_stall_cycles: int = 0
    output_stall_cycles: int = 0
    first_start: int | None = None
    last_finish: int | None = None
    finish_times: list[int] = field(default_factory=list)

    @property
    def occupancy(self) -> float:
        """Busy fraction of the task's active window (0 when never ran)."""
        if self.first_start is None or self.last_finish is None:
            return 0.0
        window = self.last_finish - self.first_start
        if window <= 0:
            return 1.0
        return self.busy_cycles / window
