"""Graph construction and the paper's TLP validity rules."""

import pytest

from repro.dataflow.buffer import fifo, pipo
from repro.dataflow.graph import DataflowGraph, merge_graphs
from repro.dataflow.task import Task
from repro.errors import DataflowValidationError


def chain3() -> DataflowGraph:
    g = DataflowGraph("chain")
    g.chain([Task("a", 5), Task("b", 7), Task("c", 3)])
    return g


class TestConstruction:
    def test_chain_wires_pipos(self):
        g = chain3()
        assert len(g.buffers) == 2
        assert g.source_tasks() == ["a"]
        assert g.sink_tasks() == ["c"]
        g.validate()

    def test_duplicate_task_rejected(self):
        g = DataflowGraph("g")
        g.add_task(Task("a", 1))
        with pytest.raises(DataflowValidationError):
            g.add_task(Task("a", 2))

    def test_buffer_to_unknown_task_rejected(self):
        g = DataflowGraph("g")
        g.add_task(Task("a", 1))
        with pytest.raises(DataflowValidationError):
            g.add_buffer(pipo("b", "a", "ghost"))

    def test_empty_graph_invalid(self):
        with pytest.raises(DataflowValidationError):
            DataflowGraph("g").validate()


class TestRules:
    def test_spsc_duplicate_channel_rejected(self):
        g = chain3()
        g.add_buffer(fifo("dup", "a", "b"))
        with pytest.raises(DataflowValidationError, match="Single-Producer"):
            g.validate()

    def test_bypass_rejected(self):
        g = chain3()
        g.add_buffer(pipo("skip", "a", "c"))
        with pytest.raises(DataflowValidationError, match="bypass"):
            g.validate()

    def test_cycle_rejected(self):
        g = chain3()
        g.add_buffer(pipo("back", "c", "a"))
        with pytest.raises(DataflowValidationError, match="cycle"):
            g.validate()

    def test_diamond_without_direct_edge_is_legal(self):
        """A fork-join (a -> b1, a -> b2, b1 -> c, b2 -> c) is legal: no
        buffer bypasses a task on its own branch."""
        g = DataflowGraph("diamond")
        for name in ("a", "b1", "b2", "c"):
            g.add_task(Task(name, 4))
        g.add_buffer(pipo("p1", "a", "b1"))
        g.add_buffer(pipo("p2", "a", "b2"))
        g.add_buffer(pipo("p3", "b1", "c"))
        g.add_buffer(pipo("p4", "b2", "c"))
        g.validate()

    def test_cycle_closed_by_dependencies_rejected(self):
        g = chain3()
        g.tasks["a"].depends_on = ("c",)
        assert g.topological_order() == ["a", "b", "c"]
        with pytest.raises(
            DataflowValidationError,
            match="buffer and dependency edges form a cycle",
        ):
            g.validate()
        with pytest.raises(DataflowValidationError, match="cycle"):
            g.topological_order(include_dependencies=True)

    def test_diamond_with_shortcut_is_bypass(self):
        g = DataflowGraph("diamond")
        for name in ("a", "b", "c"):
            g.add_task(Task(name, 4))
        g.add_buffer(pipo("p1", "a", "b"))
        g.add_buffer(pipo("p2", "b", "c"))
        g.add_buffer(pipo("shortcut", "a", "c"))
        with pytest.raises(DataflowValidationError, match="bypass"):
            g.validate()


def graph_of(edges):
    g = DataflowGraph("g")
    for name in dict.fromkeys(n for edge in edges for n in edge):
        g.add_task(Task(name, 3))
    for prod, cons in edges:
        g.add_buffer(pipo(f"{prod}_{cons}", prod, cons))
    return g


LEGAL = {
    "chain5": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    "uneven-fork-join": [
        ("a", "b"), ("b", "c"), ("c", "e"), ("a", "d"), ("d", "e"),
    ],
    "two-chains": [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")],
    "fan-out-fan-in": [
        ("s", "p"), ("s", "q"), ("s", "r"), ("p", "t"), ("q", "t"), ("r", "t"),
    ],
}
BYPASSES = {
    "long-range-shortcut": [
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e"),
    ],
    "mid-chain-shortcut": [
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "d"),
    ],
    "shortcut-over-long-branch": [
        ("a", "b"), ("b", "c"), ("c", "e"), ("a", "d"), ("d", "e"), ("a", "e"),
    ],
    "shortcut-added-first": [("a", "c"), ("a", "b"), ("b", "c")],
}


class TestBypassWalk:
    @pytest.mark.parametrize("name", LEGAL)
    def test_legal_shapes_validate(self, name):
        graph_of(LEGAL[name]).validate()

    @pytest.mark.parametrize("name", BYPASSES)
    def test_shortcuts_are_bypasses(self, name):
        with pytest.raises(DataflowValidationError, match="bypasses"):
            graph_of(BYPASSES[name]).validate()


class TestQueries:
    def test_topological_order(self):
        order = chain3().topological_order()
        assert order == ["a", "b", "c"]

    # The order is FIFO Kahn: sources in task insertion order, and each
    # task releases its successors in the order their first edge was
    # added. The vectorized schedule sweep and batched payload execution
    # run tasks in this order, so it is pinned exactly.

    def test_fork_join_order_with_buffers_added_out_of_task_order(self):
        g = DataflowGraph("fork-join")
        for name in ("d", "f", "b", "a", "c", "e"):
            g.add_task(Task(name, 2))
        for prod, cons in (
            ("a", "c"), ("f", "e"), ("a", "b"),
            ("c", "d"), ("b", "d"), ("d", "e"),
        ):
            g.add_buffer(pipo(f"{prod}_{cons}", prod, cons))
        g.validate()
        expected = ["f", "a", "c", "b", "d", "e"]
        assert g.topological_order() == expected
        assert g.topological_order(include_dependencies=True) == expected

    def test_dependency_edges_reorder_the_sweep(self):
        g = DataflowGraph("sequenced")
        g.add_task(Task("q1", 2, depends_on=("p2",)))
        g.add_task(Task("q2", 2))
        g.add_task(Task("p1", 2))
        g.add_task(Task("p2", 2))
        g.add_task(Task("r", 2, depends_on=("q2", "p1")))
        g.add_buffer(pipo("q", "q1", "q2"))
        g.add_buffer(pipo("p", "p1", "p2"))
        g.validate()
        assert g.topological_order() == ["q1", "p1", "r", "q2", "p2"]
        assert g.topological_order(include_dependencies=True) == [
            "p1", "p2", "q1", "q2", "r",
        ]

    def test_merged_compute_units_interleave(self):
        graphs = []
        for cu in range(2):
            g = DataflowGraph(f"cu{cu}")
            g.chain(
                [Task(f"cu{cu}.{s}", 3) for s in ("load", "compute", "store")],
                buffer_prefix=f"cu{cu}",
            )
            graphs.append(g)
        merged = merge_graphs("two-cu", graphs)
        merged.validate()
        assert merged.topological_order() == [
            "cu0.load", "cu1.load",
            "cu0.compute", "cu1.compute",
            "cu0.store", "cu1.store",
        ]

    def test_io_queries(self):
        g = chain3()
        assert [b.name for b in g.outputs_of("a")] == ["b_a_to_b"]
        assert [b.name for b in g.inputs_of("b")] == ["b_a_to_b"]

    def test_describe_contains_all_tasks(self):
        text = chain3().describe()
        for name in ("a", "b", "c"):
            assert name in text
