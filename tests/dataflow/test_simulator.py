"""Cycle-level simulation: steady state, stalls, deadlock."""

import pytest

from repro.dataflow.analysis import (
    pipeline_fill_cycles,
    steady_state_cycles,
    theoretical_initiation_interval,
)
from repro.dataflow.buffer import fifo, pipo
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.simulator import DataflowSimulator
from repro.dataflow.task import Task
from repro.errors import DataflowError


def chain(latencies):
    g = DataflowGraph("chain")
    g.chain([Task(f"t{i}", lat) for i, lat in enumerate(latencies)])
    return g


def completion_gap(trace, task: str) -> float:
    """Mean gap between a task's consecutive completions (its II)."""
    finish = trace.stats(task).finish_times
    return (finish[-1] - finish[0]) / (len(finish) - 1)


class TestSteadyState:
    @pytest.mark.parametrize(
        "latencies", [(5, 7, 3), (10, 10, 10), (1, 50, 1), (8,), (3, 4)]
    )
    @pytest.mark.parametrize("iterations", [1, 2, 17])
    def test_matches_analytic_formula(self, latencies, iterations):
        g = chain(latencies)
        trace = DataflowSimulator(g).run(iterations)
        assert trace.total_cycles == steady_state_cycles(g, iterations)

    def test_achieved_ii_equals_slowest_task(self):
        g = chain((5, 20, 3))
        trace = DataflowSimulator(g).run(40)
        assert completion_gap(trace, "t2") == pytest.approx(20.0)
        busiest = max(trace.task_stats.values(), key=lambda s: s.busy_cycles)
        assert busiest.name == "t1"

    def test_pipelining_beats_sequential(self):
        g = chain((10, 10, 10))
        trace = DataflowSimulator(g).run(30)
        sequential = 30 * 30
        assert trace.total_cycles < sequential
        # asymptotically 3x for balanced stages
        assert sequential / trace.total_cycles > 2.5

    def test_variable_latency_task(self):
        g = DataflowGraph("var")
        g.chain([Task("a", 5), Task("b", lambda i: 10 if i % 2 else 6)])
        trace = DataflowSimulator(g).run(10)
        assert trace.stats("b").iterations_completed == 10
        # total bounded by sum of b latencies + fill
        assert trace.total_cycles >= 6 * 5 + 10 * 5


class TestPerTaskIterations:
    """Mapping iteration counts: sharded chains under one clock."""

    def merged_two_chains(self, lat_a=(5, 7, 3), lat_b=(5, 7, 3)):
        from repro.dataflow.graph import merge_graphs

        ga = DataflowGraph("cu0")
        ga.chain([Task(f"cu0.t{i}", lat) for i, lat in enumerate(lat_a)])
        gb = DataflowGraph("cu1")
        gb.chain([Task(f"cu1.t{i}", lat) for i, lat in enumerate(lat_b)])
        return merge_graphs("both", [ga, gb])

    def test_uneven_counts_drain_independently(self):
        g = self.merged_two_chains()
        counts = {name: (14 if name.startswith("cu0") else 13) for name in g.tasks}
        trace = DataflowSimulator(g).run(counts)
        assert trace.stats("cu0.t2").iterations_completed == 14
        assert trace.stats("cu1.t2").iterations_completed == 13
        # the shared clock stops when the slower shard drains
        assert trace.total_cycles == trace.stats("cu0.t2").last_finish

    def test_matches_single_chain_runs(self):
        """Each merged shard finishes exactly when it would alone."""
        g = self.merged_two_chains(lat_a=(4, 9, 2), lat_b=(6, 3, 8))
        counts = {name: (10 if name.startswith("cu0") else 7) for name in g.tasks}
        trace = DataflowSimulator(g).run(counts)
        solo_a = DataflowSimulator(chain((4, 9, 2))).run(10)
        solo_b = DataflowSimulator(chain((6, 3, 8))).run(7)
        assert trace.stats("cu0.t2").last_finish == solo_a.total_cycles
        assert trace.stats("cu1.t2").last_finish == solo_b.total_cycles
        assert trace.total_cycles == max(solo_a.total_cycles, solo_b.total_cycles)

    def test_int_count_equals_uniform_mapping(self):
        g = chain((5, 7, 3))
        by_int = DataflowSimulator(g).run(9)
        g2 = chain((5, 7, 3))
        by_map = DataflowSimulator(g2).run({f"t{i}": 9 for i in range(3)})
        assert by_int.total_cycles == by_map.total_cycles

    def test_mapping_must_cover_every_task(self):
        g = chain((5, 7, 3))
        with pytest.raises(DataflowError):
            DataflowSimulator(g).run({"t0": 3, "t1": 3})

    def test_mapping_rejects_non_positive_count(self):
        g = chain((5, 7, 3))
        with pytest.raises(DataflowError):
            DataflowSimulator(g).run({"t0": 3, "t1": 0, "t2": 3})


class TestStallAccounting:
    def test_fast_consumer_stalls_on_input(self):
        g = chain((20, 2))
        trace = DataflowSimulator(g).run(10)
        assert trace.stats("t1").input_stall_cycles > 0
        assert trace.stats("t1").output_stall_cycles == 0

    def test_slow_consumer_backpressures_producer(self):
        g = chain((2, 20))
        trace = DataflowSimulator(g).run(10)
        assert trace.stats("t0").output_stall_cycles > 0

    def test_bottleneck_fully_occupied(self):
        g = chain((5, 20, 3))
        trace = DataflowSimulator(g).run(20)
        assert trace.stats("t1").occupancy == pytest.approx(1.0, abs=0.02)

    def test_report_renders(self):
        trace = DataflowSimulator(chain((3, 4))).run(5)
        assert "t0" in trace.report()


class TestBufferEffects:
    def test_deeper_fifo_absorbs_bursts(self):
        """With a bursty producer, a deeper FIFO reduces its output
        stalls versus a PIPO."""

        def build(depth):
            g = DataflowGraph("burst")
            g.add_task(Task("prod", lambda i: 2 if i % 4 else 30))
            g.add_task(Task("cons", 9))
            g.add_buffer(fifo("f", "prod", "cons", depth=depth))
            return DataflowSimulator(g).run(32)

        shallow = build(2).stats("prod").output_stall_cycles
        deep = build(16).stats("prod").output_stall_cycles
        assert deep < shallow

    def test_capacity_one_still_progresses(self):
        g = DataflowGraph("tight")
        g.add_task(Task("a", 4))
        g.add_task(Task("b", 4))
        g.add_buffer(fifo("f", "a", "b", depth=1))
        trace = DataflowSimulator(g).run(8)
        assert trace.stats("b").iterations_completed == 8


class TestErrors:
    def test_zero_iterations_rejected(self):
        with pytest.raises(DataflowError):
            DataflowSimulator(chain((3,))).run(0)

    def test_max_cycles_guard(self):
        with pytest.raises(DataflowError):
            DataflowSimulator(chain((100,))).run(50, max_cycles=10)

    def test_invalid_graph_rejected_at_construction(self):
        g = chain((3, 4, 5))
        g.add_buffer(pipo("skip", "t0", "t2"))
        with pytest.raises(Exception):
            DataflowSimulator(g)


class TestForkJoin:
    def test_parallel_branches_overlap(self):
        g = DataflowGraph("fork")
        for name, lat in [("src", 2), ("b1", 10), ("b2", 10), ("join", 2)]:
            g.add_task(Task(name, lat))
        g.add_buffer(pipo("p1", "src", "b1"))
        g.add_buffer(pipo("p2", "src", "b2"))
        g.add_buffer(pipo("p3", "b1", "join"))
        g.add_buffer(pipo("p4", "b2", "join"))
        trace = DataflowSimulator(g).run(20)
        # branches run concurrently: II = 10, not 20
        assert completion_gap(trace, "join") == pytest.approx(10.0, abs=0.5)


class TestPayloadExecution:
    """Tasks with actions compute real data while the run is priced."""

    def test_chain_computes_and_collects_in_order(self):
        g = DataflowGraph("payload-chain")
        g.chain(
            [
                Task("src", 3, kind="load", action=lambda i, args: i),
                Task(
                    "dbl",
                    7,
                    action=lambda i, args: 2 * args[0],
                ),
                Task("sink", 2, kind="store", action=lambda i, args: args[0] + 1),
            ]
        )
        trace = DataflowSimulator(g).run(10)
        assert trace.sink_results == {"sink": [2 * i + 1 for i in range(10)]}

    def test_actionless_task_passes_payload_through(self):
        g = DataflowGraph("passthrough")
        g.chain(
            [
                Task("src", 1, action=lambda i, args: i * i),
                Task("relay", 5),  # no action: forwards its input token
                Task("sink", 1, action=lambda i, args: args[0]),
            ]
        )
        trace = DataflowSimulator(g).run(5)
        assert trace.sink_results["sink"] == [i * i for i in range(5)]

    def test_actions_do_not_change_cycle_counts(self):
        latencies = (5, 20, 3)
        plain = DataflowSimulator(chain(latencies)).run(25)
        g = DataflowGraph("timed")
        g.chain(
            [
                Task(f"t{i}", lat, action=lambda it, args: it)
                for i, lat in enumerate(latencies)
            ]
        )
        executed = DataflowSimulator(g).run(25)
        assert executed.total_cycles == plain.total_cycles

    def test_fork_join_receives_both_payloads(self):
        g = DataflowGraph("fork-payload")
        g.add_task(Task("src", 2, action=lambda i, args: i))
        g.add_task(Task("b1", 4, action=lambda i, args: args[0] + 100))
        g.add_task(Task("b2", 4, action=lambda i, args: args[0] + 200))
        g.add_task(
            Task("join", 2, action=lambda i, args: sorted(args))
        )
        g.add_buffer(pipo("p1", "src", "b1"))
        g.add_buffer(pipo("p2", "src", "b2"))
        g.add_buffer(pipo("p3", "b1", "join"))
        g.add_buffer(pipo("p4", "b2", "join"))
        trace = DataflowSimulator(g).run(6)
        assert trace.sink_results["join"] == [
            [i + 100, i + 200] for i in range(6)
        ]

    def test_without_actions_no_sink_results(self):
        trace = DataflowSimulator(chain((2, 2))).run(4)
        assert trace.sink_results == {}


class TestKernelSequencingDependencies:
    """``Task.depends_on``: a chain may not start until the named tasks
    retired ALL their iterations — the host-runtime event ordering
    between separately enqueued kernels (RKL drains, then RKU launches),
    which is what sequences the full-RK-step co-simulation's chains
    under one clock."""

    @staticmethod
    def two_chains(dep=True):
        g = DataflowGraph("two-kernels")
        g.chain([Task("a.load", 4), Task("a.store", 4)])
        g.chain(
            [
                Task(
                    "b.load", 3, depends_on=("a.store",) if dep else ()
                ),
                Task("b.store", 3),
            ]
        )
        return g

    def test_dependent_chain_waits_for_full_drain(self):
        g = self.two_chains()
        trace = DataflowSimulator(g).run({"a.load": 5, "a.store": 5,
                                          "b.load": 2, "b.store": 2})
        a_drain = trace.stats("a.store").last_finish
        assert trace.stats("b.load").first_start >= a_drain
        # and not a cycle later than needed
        assert trace.stats("b.load").first_start == a_drain

    def test_without_dependency_chains_overlap(self):
        g = self.two_chains(dep=False)
        trace = DataflowSimulator(g).run({"a.load": 5, "a.store": 5,
                                          "b.load": 2, "b.store": 2})
        assert trace.stats("b.load").first_start == 0

    def test_dependency_stall_attributed_to_input(self):
        g = self.two_chains()
        trace = DataflowSimulator(g).run({"a.load": 5, "a.store": 5,
                                          "b.load": 2, "b.store": 2})
        assert trace.stats("b.load").input_stall_cycles > 0

    def test_unknown_dependency_rejected(self):
        g = DataflowGraph("bad-dep")
        g.add_task(Task("only", 1, depends_on=("ghost",)))
        with pytest.raises(Exception) as excinfo:
            g.validate()
        assert "unknown task" in str(excinfo.value)

    def test_self_dependency_rejected(self):
        g = DataflowGraph("self-dep")
        g.add_task(Task("only", 1, depends_on=("only",)))
        with pytest.raises(Exception) as excinfo:
            g.validate()
        assert "itself" in str(excinfo.value)

    def test_dependency_cycle_rejected(self):
        g = DataflowGraph("dep-cycle")
        g.add_task(Task("x", 1, depends_on=("y",)))
        g.add_task(Task("y", 1, depends_on=("x",)))
        with pytest.raises(Exception) as excinfo:
            g.validate()
        assert "cycle" in str(excinfo.value)

    def test_payloads_flow_through_sequenced_chains(self):
        """A producer chain fills a shared buffer; the dependent chain
        reads it — the full-step co-simulation's staging pattern."""
        staged = []
        shared = {"value": None}

        def produce(iteration, inputs):
            shared["value"] = iteration
            return None

        def consume(iteration, inputs):
            staged.append(shared["value"])
            return None

        g = DataflowGraph("staged")
        g.add_task(Task("producer", 2, action=produce))
        g.add_task(
            Task("consumer", 2, action=consume, depends_on=("producer",))
        )
        DataflowSimulator(g).run({"producer": 3, "consumer": 1})
        # the consumer saw the producer's LAST iteration
        assert staged == [2]


class TestLazyStats:
    def test_vectorized_trace_derives_only_the_stats_read(self, monkeypatch):
        from repro.dataflow.schedule import TaskSchedule

        derived = []
        stats = TaskSchedule.stats

        def counted(self):
            derived.append(self.name)
            return stats(self)

        monkeypatch.setattr(TaskSchedule, "stats", counted)
        trace = DataflowSimulator(chain((5, 20, 3))).run(
            12, engine="vectorized"
        )
        assert derived == []
        assert list(trace.task_stats) == ["t0", "t1", "t2"]
        assert len(trace.task_stats) == 3
        assert derived == []
        first = trace.stats("t1")
        assert trace.stats("t1") is first
        assert derived == ["t1"]
        event = DataflowSimulator(chain((5, 20, 3))).run(12)
        assert trace.task_stats == event.task_stats
