"""The shared FIFO Kahn sort behind every topological order."""

import numpy as np
import pytest

from repro.dataflow.graph import kahn_order


def reference_fifo_kahn(nodes, edges):
    """The rule written out longhand: a ready list served front first;
    sources join it in node order, and a finished node appends the
    successors it frees in the order of their first edge."""
    nodes = list(nodes)
    for u, v in edges:
        for end in (u, v):
            if end not in nodes:
                nodes.append(end)
    distinct = []
    for edge in edges:
        if edge not in distinct:
            distinct.append(edge)
    remaining = {n: sum(1 for _, v in distinct if v == n) for n in nodes}
    ready = [n for n in nodes if remaining[n] == 0]
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for u, v in distinct:
            if u == node:
                remaining[v] -= 1
                if remaining[v] == 0:
                    ready.append(v)
    return order if len(order) == len(nodes) else None


def random_dag(num_nodes, density, seed):
    """Nodes in shuffled insertion order, edges in shuffled order, every
    edge pointing forward in a hidden ranking, some edges repeated."""
    rng = np.random.default_rng(seed)
    rank = rng.permutation(num_nodes)
    nodes = [f"t{i}" for i in rng.permutation(num_nodes)]
    by_rank = {int(r): f"t{i}" for i, r in enumerate(rank)}
    edges = [
        (by_rank[a], by_rank[b])
        for a in range(num_nodes)
        for b in range(a + 1, num_nodes)
        if rng.random() < density
    ]
    if edges:
        repeats = rng.integers(0, len(edges), len(edges) // 3)
        edges += [edges[i] for i in repeats]
    order = rng.permutation(len(edges))
    return nodes, [edges[i] for i in order]


SHAPES = [
    (1, 0.0),
    (2, 1.0),
    (6, 0.0),
    (6, 0.5),
    (10, 1.0),
    (15, 0.2),
    (30, 0.1),
    (40, 0.35),
]
SHAPE_IDS = [f"n{n}-d{d}" for n, d in SHAPES]


class TestRule:
    def test_empty(self):
        assert kahn_order([], []) == []

    def test_isolated_nodes_keep_insertion_order(self):
        assert kahn_order(["c", "a", "b"], []) == ["c", "a", "b"]

    def test_sources_queue_in_node_order(self):
        """Two independent chains interleave level by level, the chain
        whose source was listed first leading each level."""
        order = kahn_order(
            ["x0", "y0", "x1", "y1"], [("y0", "y1"), ("x0", "x1")]
        )
        assert order == ["x0", "y0", "x1", "y1"]

    def test_successors_released_in_first_edge_order(self):
        edges = [("s", "c"), ("s", "a"), ("s", "b")]
        order = kahn_order(["s", "a", "b", "c"], edges)
        assert order == ["s", "c", "a", "b"]

    def test_repeated_edges_count_once(self):
        edges = [("a", "b"), ("a", "b"), ("b", "c"), ("a", "b")]
        assert kahn_order(["a", "b", "c"], edges) == ["a", "b", "c"]

    def test_repeat_does_not_move_first_edge_position(self):
        edges = [("s", "a"), ("s", "b"), ("s", "a")]
        assert kahn_order(["s", "b", "a"], edges) == ["s", "a", "b"]

    def test_unknown_endpoint_joins_at_first_mention(self):
        assert kahn_order(["a"], [("z", "a"), ("a", "y")]) == ["z", "a", "y"]
        assert kahn_order(["b"], [("x", "y")]) == ["b", "x", "y"]

    def test_cycle_returns_none(self):
        edges = [("a", "b"), ("b", "c"), ("c", "b")]
        assert kahn_order(["a", "b", "c"], edges) is None

    def test_self_loop_returns_none(self):
        assert kahn_order(["a", "b"], [("a", "b"), ("b", "b")]) is None

    def test_accepts_one_shot_iterables_and_any_hashable(self):
        nodes = iter([(0, 1), (0, 0)])
        edges = ((a, b) for a, b in [((0, 1), (0, 0))])
        assert kahn_order(nodes, edges) == [(0, 1), (0, 0)]


class TestRandomDags:
    @pytest.mark.parametrize("num_nodes,density", SHAPES, ids=SHAPE_IDS)
    def test_order_is_a_topological_permutation(self, num_nodes, density):
        nodes, edges = random_dag(num_nodes, density, seed=num_nodes)
        order = kahn_order(nodes, edges)
        assert sorted(order) == sorted(nodes)
        position = {node: i for i, node in enumerate(order)}
        assert all(position[u] < position[v] for u, v in edges)

    @pytest.mark.parametrize("num_nodes,density", SHAPES, ids=SHAPE_IDS)
    def test_matches_the_longhand_rule(self, num_nodes, density):
        nodes, edges = random_dag(num_nodes, density, seed=100 + num_nodes)
        assert kahn_order(nodes, edges) == reference_fifo_kahn(nodes, edges)

    @pytest.mark.parametrize("num_nodes,density", SHAPES, ids=SHAPE_IDS)
    def test_back_edge_closes_a_cycle(self, num_nodes, density):
        nodes, edges = random_dag(num_nodes, density, seed=200 + num_nodes)
        if not edges:
            edges = [(nodes[0], nodes[0])]
        else:
            u, v = edges[0]
            edges = edges + [(v, u)]
        assert kahn_order(nodes, edges) is None
