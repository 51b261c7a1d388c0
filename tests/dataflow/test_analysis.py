"""Analytic steady-state results."""

from repro.dataflow.analysis import (
    pipeline_fill_cycles,
    sequential_cycles,
    steady_state_cycles,
    theoretical_initiation_interval,
)
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.task import Task


def chain(latencies):
    g = DataflowGraph("chain")
    g.chain([Task(f"t{i}", lat) for i, lat in enumerate(latencies)])
    return g


class TestFormulas:
    def test_ii_is_max_latency(self):
        assert theoretical_initiation_interval(chain((5, 9, 2))) == 9.0

    def test_fill_is_chain_sum(self):
        assert pipeline_fill_cycles(chain((5, 9, 2))) == 16.0

    def test_steady_state(self):
        g = chain((5, 9, 2))
        assert steady_state_cycles(g, 11) == 16 + 9 * 10

    def test_sequential_cycles(self):
        assert sequential_cycles(chain((5, 9, 2)), 10) == 160


class TestForkJoinAnalysis:
    def test_fill_uses_longest_path(self):
        g = DataflowGraph("fork")
        for name, lat in [("src", 2), ("fast", 3), ("slow", 12), ("join", 2)]:
            g.add_task(Task(name, lat))
        from repro.dataflow.buffer import pipo

        g.add_buffer(pipo("p1", "src", "fast"))
        g.add_buffer(pipo("p2", "src", "slow"))
        g.add_buffer(pipo("p3", "fast", "join"))
        g.add_buffer(pipo("p4", "slow", "join"))
        assert pipeline_fill_cycles(g) == 2 + 12 + 2
