"""Randomized parity harness: vectorized schedule engine vs the oracle.

The vectorized engine (:mod:`repro.dataflow.schedule`) must reproduce
the event engine *exactly* — total cycles, every per-task stat
(stall attribution included), and every sink value — on arbitrary
graphs: random DAGs (chains, forks/joins), mixed PIPO/FIFO buffer
depths, uneven per-task iteration counts within buffer feasibility,
``depends_on`` edges across chains, constant / data-dependent /
block-scaled latencies, and payload actions. The vectorized engine runs
payloads only in batch form, so the harness lifts each per-token action
to one.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.dataflow.buffer import fifo, pipo
from repro.dataflow.graph import DataflowGraph, merge_graphs
from repro.dataflow.schedule import normalize_iteration_counts
from repro.dataflow.simulator import DataflowSimulator
from repro.dataflow.task import BlockLatency, Task
from repro.errors import DataflowError, DeadlockError

STAT_FIELDS = (
    "iterations_completed",
    "busy_cycles",
    "input_stall_cycles",
    "output_stall_cycles",
    "first_start",
    "last_finish",
    "finish_times",
)


def lift(action):
    """``action`` with a batch form: the per-token calls in token order,
    each fed the producers' values for its token."""

    def lifted(iteration, args):
        return action(iteration, args)

    def batch(count, inputs):
        return [
            action(i, tuple(values[i] for values in inputs))
            for i in range(count)
        ]

    lifted.batch = batch
    return lifted


def with_actions(graph, convert):
    """A copy of ``graph`` with every action ``a`` replaced by
    ``convert(a)``."""
    copy = DataflowGraph(graph.name)
    for task in graph.tasks.values():
        action = None if task.action is None else convert(task.action)
        copy.add_task(replace(task, action=action))
    for buf in graph.buffers.values():
        copy.add_buffer(buf)
    return copy


def batchable(graph, counts):
    """Whether batch-form actions could run: every buffer-connected
    component that carries an action is all action tasks at one count."""
    component = {name: {name} for name in graph.tasks}
    for buf in graph.buffers.values():
        joined = component[buf.producer] | component[buf.consumer]
        for name in joined:
            component[name] = joined
    for names in component.values():
        actions = {graph.tasks[n].action is not None for n in names}
        if True in actions and (
            actions != {True} or len({counts[n] for n in names}) != 1
        ):
            return False
    return True


def assert_same_trace(event, vectorized, graph, payloads):
    """Compare every observable field by field; sink values only when
    the vectorized side ran the payloads."""
    assert event.total_cycles == vectorized.total_cycles
    assert event.iterations == vectorized.iterations
    assert set(event.task_stats) == set(vectorized.task_stats)
    for name in graph.tasks:
        for field in STAT_FIELDS:
            assert getattr(event.stats(name), field) == getattr(
                vectorized.stats(name), field
            ), f"{name}.{field}"
    if payloads:
        assert event.sink_results == vectorized.sink_results


def assert_traces_identical(graph, counts):
    """Run both engines and compare every observable, field by field.

    The vectorized side runs the graph with each action lifted to a
    batch form when its payloads can run batched, and must refuse them
    otherwise; it then runs an actionless copy, since timing does not
    depend on payloads.
    """
    event = DataflowSimulator(graph).run(counts, engine="event")
    lifted = DataflowSimulator(with_actions(graph, lift))
    payloads = batchable(graph, normalize_iteration_counts(graph, counts))
    if payloads:
        vectorized = lifted.run(counts, engine="vectorized")
    else:
        with pytest.raises(DataflowError, match="only in batch form"):
            lifted.run(counts, engine="vectorized")
        vectorized = DataflowSimulator(
            with_actions(graph, lambda action: None)
        ).run(counts, engine="vectorized")
    assert_same_trace(event, vectorized, graph, payloads)
    return event


def random_latency(rng, task_tag):
    """A constant, data-dependent, or block-scaled latency model."""
    kind = rng.random()
    if kind < 0.5:
        return rng.randint(1, 30)
    if kind < 0.8:
        base = rng.randint(1, 20)
        period = rng.randint(2, 4)
        return lambda i, base=base, period=period: base + (i % period)
    sizes = [rng.randint(1, 6) for _ in range(64)]
    return BlockLatency(
        rng.uniform(0.5, 9.0), sizes, first_extra=rng.choice((0, 0, 7))
    )


def random_chain_graph(rng, tag, allow_fork=True):
    """One random component: a chain, sometimes with a fork/join middle."""
    g = DataflowGraph(f"g{tag}")
    fork = allow_fork and rng.random() < 0.25
    if fork:
        names = [f"{tag}.src", f"{tag}.b1", f"{tag}.b2", f"{tag}.join"]
        for name in names:
            action = None
            if rng.random() < 0.6:
                action = lambda i, args, name=name: (name, i, repr(args))
            g.add_task(Task(name, random_latency(rng, name), action=action))
        g.add_buffer(pipo(f"{tag}.p1", names[0], names[1]))
        g.add_buffer(pipo(f"{tag}.p2", names[0], names[2]))
        g.add_buffer(pipo(f"{tag}.p3", names[1], names[3]))
        g.add_buffer(pipo(f"{tag}.p4", names[2], names[3]))
        return g
    num_tasks = rng.randint(1, 5)
    tasks = []
    for t in range(num_tasks):
        action = None
        if rng.random() < 0.6:
            action = lambda i, args, t=t, tag=tag: (tag, t, i, repr(args))
        tasks.append(
            Task(f"{tag}.t{t}", random_latency(rng, t), action=action)
        )
    g.add_task(tasks[0])
    for t in range(1, num_tasks):
        g.add_task(tasks[t])
        if rng.random() < 0.5:
            g.add_buffer(pipo(f"{tag}.b{t}", tasks[t - 1].name, tasks[t].name))
        else:
            g.add_buffer(
                fifo(
                    f"{tag}.b{t}",
                    tasks[t - 1].name,
                    tasks[t].name,
                    depth=rng.randint(1, 4),
                )
            )
    return g


def feasible_counts(rng, graph, max_tokens=12):
    """Random per-task counts within buffer feasibility.

    Walking tasks in reverse topological order, each task's count must
    cover every consumer's and may exceed it by at most the buffer's
    capacity (the surplus tokens that fit).
    """
    counts = {}
    for name in reversed(graph.topological_order()):
        outs = graph.outputs_of(name)
        if not outs:
            counts[name] = rng.randint(1, max_tokens)
            continue
        low = max(counts[b.consumer] for b in outs)
        high = min(counts[b.consumer] + b.capacity for b in outs)
        counts[name] = (
            low if low >= high or rng.random() < 0.6 else rng.randint(low, high)
        )
    return counts


@pytest.mark.parametrize("seed", range(40))
def test_random_merged_graphs_parity(seed):
    """Merged random components with uneven counts and cross-chain
    ``depends_on`` sequencing: exact trace parity."""
    rng = random.Random(seed)
    num_components = rng.randint(1, 3)
    graphs, counts = [], {}
    previous_sink = None
    for c in range(num_components):
        g = random_chain_graph(rng, f"c{c}")
        component_counts = feasible_counts(rng, g)
        entry = g.topological_order()[0]
        if previous_sink is not None and rng.random() < 0.5:
            g.tasks[entry].depends_on = (previous_sink,)
        previous_sink = g.topological_order()[-1]
        counts.update(component_counts)
        graphs.append(g)
    merged = (
        merge_graphs("merged", graphs) if len(graphs) > 1 else graphs[0]
    )
    assert_traces_identical(merged, counts)


@pytest.mark.parametrize("seed", range(10))
def test_uniform_count_parity(seed):
    """The plain single-pipeline call signature (one int)."""
    rng = random.Random(1000 + seed)
    g = random_chain_graph(rng, "u")
    assert_traces_identical(g, rng.randint(1, 25))


def test_block_latency_parity():
    """BlockLatency tasks price identically under both engines."""
    sizes = [3, 1, 4, 4, 2, 5, 1, 1]
    g = DataflowGraph("blocks")
    g.chain(
        [
            Task("load", BlockLatency(2.4, sizes, first_extra=11)),
            Task("compute", BlockLatency(7.6, sizes)),
            Task("store", BlockLatency(1.2, sizes)),
        ]
    )
    trace = assert_traces_identical(g, len(sizes))
    # iteration latencies follow max(1, round(c * size)) (+fill on 0)
    assert trace.stats("load").busy_cycles == sum(
        max(1, round(2.4 * s)) for s in sizes
    ) + 11


def test_capacity_one_backpressure_parity():
    """Depth-1 FIFOs maximize backpressure coupling; still exact."""
    g = DataflowGraph("tight")
    g.add_task(Task("a", 3))
    g.add_task(Task("b", 9))
    g.add_task(Task("c", 2))
    g.add_buffer(fifo("f1", "a", "b", depth=1))
    g.add_buffer(fifo("f2", "b", "c", depth=1))
    assert_traces_identical(g, 20)


def test_deep_fifo_parity():
    """A bursty producer against a deep FIFO: stall windows match."""
    g = DataflowGraph("burst")
    g.add_task(Task("prod", lambda i: 2 if i % 4 else 30))
    g.add_task(Task("cons", 9))
    g.add_buffer(fifo("f", "prod", "cons", depth=16))
    assert_traces_identical(g, 32)


def test_dependency_gate_parity():
    """Kernel-sequenced chains: the dependent chain's stall is input-
    attributed identically."""
    g = DataflowGraph("seq")
    g.chain([Task("a.load", 4), Task("a.store", 4)])
    g.chain(
        [
            Task("b.load", 3, depends_on=("a.store",)),
            Task("b.store", 3),
        ]
    )
    assert_traces_identical(
        g, {"a.load": 7, "a.store": 7, "b.load": 2, "b.store": 2}
    )


@pytest.mark.parametrize("seed", range(20))
def test_batched_order_parity(seed):
    """Every task carries a lifted batch action, so the vectorized side
    runs the batched path on random fork/join components sequenced by
    ``depends_on``. Each task logs its values on a board and records how
    many values its dependencies had logged when it ran, so a batched
    order that runs a task before a dependency changes the sink values."""
    rng = random.Random(5000 + seed)
    board: dict[str, list] = {}

    def logged(name, depends_on):
        def action(i, args):
            seen = tuple(len(board.get(dep, ())) for dep in depends_on)
            value = (name, i, repr(args), seen)
            board.setdefault(name, []).append(value)
            return value

        return lift(action)

    graphs, counts, sinks = [], {}, []
    for c in range(rng.randint(2, 4)):
        g = random_chain_graph(rng, f"c{c}")
        order = g.topological_order()
        g.tasks[order[0]].depends_on = tuple(
            sink for sink in sinks if rng.random() < 0.6
        )
        for name, task in g.tasks.items():
            task.action = logged(name, task.depends_on)
        counts.update(dict.fromkeys(g.tasks, rng.randint(1, 12)))
        sinks.append(order[-1])
        graphs.append(g)
    merged = merge_graphs("batched", graphs)
    event = DataflowSimulator(merged).run(counts, engine="event")
    logged_by_event = dict(board)
    board.clear()
    vectorized = DataflowSimulator(merged).run(counts, engine="vectorized")
    assert board == logged_by_event
    assert_same_trace(event, vectorized, merged, payloads=True)


class TestBatchedPayloadContract:
    """The vectorized engine runs payloads only in batch form."""

    def test_per_token_payloads_need_the_event_engine(self):
        g = DataflowGraph("per-token")
        g.chain(
            [
                Task("a", 5, action=lambda i, args: i),
                Task("b", 7, action=lambda i, args: args[0]),
            ]
        )
        sim = DataflowSimulator(g)
        with pytest.raises(
            DataflowError, match=r"'per-token'.*task 'a'.*engine=\"event\""
        ):
            sim.run(3, engine="vectorized")
        assert sim.run(3, engine="event").sink_results == {"b": [0, 1, 2]}

    def test_component_mixing_action_and_actionless_tasks_raises(self):
        g = DataflowGraph("mixed")
        g.chain([Task("a", 5, action=lift(lambda i, args: i)), Task("b", 7)])
        with pytest.raises(DataflowError, match="task 'b'"):
            DataflowSimulator(g).run(3, engine="vectorized")

    def test_uneven_counts_across_a_buffer_raise(self):
        g = DataflowGraph("uneven")
        g.add_task(Task("a", 5, action=lift(lambda i, args: i)))
        g.add_task(Task("b", 7, action=lift(lambda i, args: args[0])))
        g.add_buffer(fifo("ab", "a", "b", depth=2))
        counts = {"a": 4, "b": 3}
        with pytest.raises(DataflowError, match="task 'b' runs 3"):
            DataflowSimulator(g).run(counts, engine="vectorized")
        trace = DataflowSimulator(g).run(counts, engine="event")
        assert trace.sink_results == {"b": [0, 1, 2]}

    def test_actionless_chain_beside_batched_chain_runs(self):
        g = DataflowGraph("beside")
        g.add_task(Task("x", 3))
        g.add_task(Task("y", 8))
        g.add_buffer(fifo("xy", "x", "y", depth=2))
        g.chain(
            [
                Task("a", 5, action=lift(lambda i, args: i)),
                Task("b", 7, action=lift(lambda i, args: 10 * args[0])),
            ],
            buffer_prefix="ab",
        )
        counts = {"x": 5, "y": 3, "a": 4, "b": 4}
        sim = DataflowSimulator(g)
        vectorized = sim.run(counts, engine="vectorized")
        assert vectorized.sink_results == {"b": [0, 10, 20, 30]}
        assert_same_trace(
            sim.run(counts, engine="event"), vectorized, g, payloads=True
        )

    def test_single_batch_form_task_runs(self):
        g = DataflowGraph("single")
        g.add_task(Task("only", 3, action=lift(lambda i, args: i * i)))
        trace = DataflowSimulator(g).run(4, engine="vectorized")
        assert trace.sink_results == {"only": [0, 1, 4, 9]}
        assert trace.total_cycles == 12


class TestVectorizedEngineBehaviour:
    def test_engine_argument_validated(self):
        g = DataflowGraph("one")
        g.add_task(Task("t", 1))
        with pytest.raises(DataflowError):
            DataflowSimulator(g).run(1, engine="warp")
        with pytest.raises(DataflowError):
            DataflowSimulator(g).run(1, engine="auto")

    def test_vectorized_detects_starving_consumer(self):
        g = DataflowGraph("dead")
        g.chain([Task("a", 2), Task("b", 2)])
        with pytest.raises(DeadlockError):
            DataflowSimulator(g).run({"a": 2, "b": 5}, engine="vectorized")

    def test_vectorized_detects_overrunning_producer(self):
        g = DataflowGraph("dead2")
        g.chain([Task("a", 2), Task("b", 2)])
        with pytest.raises(DeadlockError):
            DataflowSimulator(g).run({"a": 9, "b": 2}, engine="vectorized")

    def test_vectorized_max_cycles_guard(self):
        g = DataflowGraph("long")
        g.chain([Task("a", 100)])
        with pytest.raises(DataflowError):
            DataflowSimulator(g).run(50, max_cycles=10, engine="vectorized")

    def test_batched_sink_length_validated(self):
        def action(i, args):
            return i

        def bad_batch(count, inputs):
            return [0]  # wrong length

        action.batch = bad_batch
        g = DataflowGraph("badbatch")
        g.add_task(Task("only", 2, action=action))
        with pytest.raises(DataflowError):
            DataflowSimulator(g).run(3, engine="vectorized")

    def test_schedule_totals_match_block_law(self):
        """The engine's core recurrence IS the tandem-pipeline law."""
        from repro.dataflow.schedule import compute_schedule

        sizes = [4, 4, 4, 4, 3]
        role_cycles = (5.0, 11.0, 3.0)
        g = DataflowGraph("law")
        g.chain(
            [
                Task(f"t{k}", BlockLatency(c, sizes))
                for k, c in enumerate(role_cycles)
            ]
        )
        counts = {name: len(sizes) for name in g.tasks}
        schedule = compute_schedule(g, counts)
        finish = [0.0] * len(role_cycles)
        for size in sizes:
            upstream = 0.0
            for task, cycles in enumerate(role_cycles):
                finish[task] = max(finish[task], upstream) + round(
                    cycles * size
                )
                upstream = finish[task]
        assert schedule.total_cycles == finish[-1]


class TestExactCycles:
    """`analysis.exact_cycles`: the timing-only schedule entry point."""

    def test_matches_closed_form_on_linear_chain(self):
        from repro.dataflow.analysis import exact_cycles, steady_state_cycles

        g = DataflowGraph("chain")
        g.chain([Task(f"t{i}", lat) for i, lat in enumerate((5, 7, 3))])
        assert exact_cycles(g, 17) == steady_state_cycles(g, 17)

    def test_matches_event_engine_on_merged_graph(self):
        rng = random.Random(7)
        graphs, counts = [], {}
        for c in range(3):
            g = random_chain_graph(rng, f"x{c}", allow_fork=False)
            for task in g.tasks.values():
                task.action = None  # timing only
            counts.update(feasible_counts(rng, g))
            graphs.append(g)
        merged = merge_graphs("m", graphs)
        from repro.dataflow.analysis import exact_cycles

        trace = DataflowSimulator(merged).run(counts, engine="event")
        assert exact_cycles(merged, counts) == trace.total_cycles

    def test_infeasible_counts_raise(self):
        from repro.dataflow.analysis import exact_cycles

        g = DataflowGraph("dead")
        g.chain([Task("a", 2), Task("b", 2)])
        with pytest.raises(DeadlockError):
            exact_cycles(g, {"a": 1, "b": 4})


class TestScheduleConsistency:
    def test_source_task_starts_are_finish_minus_latency(self):
        """Unconstrained tasks must expose real starts, not the zero
        initialization (regression: starts only updated on change)."""
        from repro.dataflow.schedule import compute_schedule

        g = DataflowGraph("chain")
        g.chain([Task("load", 5), Task("compute", 9), Task("store", 2)])
        schedule = compute_schedule(g, {n: 3 for n in g.tasks})
        for sched in schedule.tasks.values():
            assert (sched.starts == sched.finishes - sched.latencies).all()
        assert schedule.tasks["load"].starts.tolist() == [0, 5, 10]

    def test_dependency_backpressure_deadlock_raises_deadlock_error(self):
        """A depends_on edge against buffer backpressure deadlocks the
        event engine; the vectorized engine must classify the diverging
        recurrence as the same DeadlockError, not a generic failure."""
        g = DataflowGraph("gated")
        g.add_task(Task("a", 2))
        g.add_task(Task("b", 2, depends_on=("c",)))
        g.add_task(Task("c", 2))
        g.add_buffer(fifo("ab", "a", "b", depth=1))
        g.add_buffer(fifo("ac", "a", "c", depth=1))
        for engine in ("event", "vectorized"):
            with pytest.raises(DeadlockError):
                DataflowSimulator(g).run(2, engine=engine)

    def test_gated_but_feasible_graph_still_schedules(self):
        """The same topology with enough buffer depth is feasible and
        must agree across engines (the deadlock check is not lazy)."""
        g = DataflowGraph("gated-ok")
        g.add_task(Task("a", 2))
        g.add_task(Task("b", 2, depends_on=("c",)))
        g.add_task(Task("c", 2))
        g.add_buffer(fifo("ab", "a", "b", depth=4))
        g.add_buffer(fifo("ac", "a", "c", depth=2))
        assert_traces_identical(g, 2)
