"""Outside-in span recording for the benchmark's traced runs.

The program under test is not modified: a :class:`Tracer` wraps public
functions and methods of each layer (``Simulation.step``, the pipeline
kernel registry, ``DataflowSimulator.run``, ``compute_schedule``, ...)
for the duration of an :meth:`Tracer.installed` block and restores them
afterwards. Every wrapped call records one span — name, start, end,
parent span and the id of the operation it belongs to. Spans stay in
memory and are written once, as Chrome trace-event JSON
(:meth:`Tracer.chrome_trace`, loadable in Perfetto or ``chrome://tracing``).

A span's *self time* is its duration minus the durations of its direct
children; since wrapped calls nest strictly on one thread, the self
times of an operation's spans sum to the operation's root span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: Span record fields, stored as a list for cheap mutation.
NAME, START, END, PARENT, OP = range(5)


@dataclass
class LayerTotals:
    """Aggregate of every span of one name over a set of operations."""

    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0


class Tracer:
    """In-memory span recorder with attribute-patching instrumentation.

    ``active`` gates recording: wrapped callables run untraced (one
    attribute check) while it is false, so one instrumented process can
    alternate traced and untraced operations to measure the overhead.
    """

    def __init__(self) -> None:
        self.active = False
        #: Label stamped on every span recorded (the operation id).
        self.op: str = ""
        self.spans: list[list] = []
        #: ``(span name, counter) -> value`` accumulated by wrap hooks.
        self.counters: dict[tuple[str, str, str], float] = defaultdict(float)
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def count(self, name: str, counter: str, value: float) -> None:
        """Add ``value`` to a per-operation counter of span ``name``."""
        self.counters[(self.op, name, counter)] += value

    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording a ``name`` span per call while active.

        ``hook(tracer, args, result)`` runs after a traced call (outside
        the span) to record counters such as operation counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Wrap ``(owner, attribute, span name, hook)`` targets; restore on exit.

        ``owner`` is a module, a class or a dict (a registry); class
        attributes are restored exactly, including inherited ones.
        """
        saved = []
        try:
            for owner, attr, name, hook in patches:
                if isinstance(owner, dict):
                    saved.append((owner, attr, owner[attr], True))
                    owner[attr] = self.wrap(owner[attr], name, hook)
                else:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original, attr in vars(owner)))
                    setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                elif own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- analysis ------------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        own = [(s[END] - s[START]) * 1e-9 for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= (span[END] - span[START]) * 1e-9
        return own

    def totals(self, select) -> dict[str, LayerTotals]:
        """Per-name duration, self time and call count of the spans whose
        operation id satisfies ``select``."""
        own = self.self_seconds()
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for span, self_s in zip(self.spans, own):
            if not select(span[OP]):
                continue
            entry = out[span[NAME]]
            entry.seconds += (span[END] - span[START]) * 1e-9
            entry.self_seconds += self_s
            entry.calls += 1
        return out

    def seconds_inside(self, name: str, ancestor: str, select) -> float:
        """Total duration of ``name`` spans nested anywhere under an
        ``ancestor`` span, over the operations ``select`` accepts."""
        total = 0.0
        for span in self.spans:
            if span[NAME] != name or not select(span[OP]):
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != ancestor:
                parent = self.spans[parent][PARENT]
            if parent >= 0:
                total += (span[END] - span[START]) * 1e-9
        return total

    def counter(self, name: str, counter: str, select) -> float:
        """Sum of a :meth:`count` counter over the operations ``select``
        accepts."""
        return sum(
            value
            for (op, span_name, key), value in self.counters.items()
            if span_name == name and key == counter and select(op)
        )

    def chrome_trace(self, metadata: dict) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = min((s[START] for s in self.spans), default=0)
        events = [
            {
                "name": span[NAME],
                "cat": span[NAME].split(".")[0],
                "ph": "X",
                "ts": (span[START] - origin) / 1e3,
                "dur": (span[END] - span[START]) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {
                    "op": span[OP],
                    "parent": (
                        self.spans[span[PARENT]][NAME]
                        if span[PARENT] >= 0
                        else None
                    ),
                },
            }
            for span in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }
