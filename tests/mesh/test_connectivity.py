"""Node-sharing statistics."""

import pytest

from repro.mesh.connectivity import shared_node_counts
from repro.mesh.hexmesh import box_mesh, periodic_box_mesh


class TestMultiplicity:
    def test_histogram_total(self):
        mesh = periodic_box_mesh(2, 2)
        hist = shared_node_counts(mesh)
        assert hist.sum() - hist[0] == mesh.num_nodes

    @pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 2), (2, 4)])
    def test_periodic_histogram_by_node_class(self, n, p):
        """Per element: one vertex node (shared by 8), 3(p-1) edge nodes
        (4), 3(p-1)^2 face nodes (2) and (p-1)^3 interior nodes (1)."""
        mesh = periodic_box_mesh(n, p)
        hist = shared_node_counts(mesh)
        e = mesh.num_elements
        expected = {
            1: (p - 1) ** 3 * e,
            2: 3 * (p - 1) ** 2 * e,
            4: 3 * (p - 1) * e,
            8: e,
        }
        assert {m: int(c) for m, c in enumerate(hist) if c} == {
            m: c for m, c in expected.items() if c
        }

    def test_box_histogram(self):
        """5 nodes per axis on a 2x2x2 box: only the middle plane of each
        axis is shared, so multiplicity is 2 per middle coordinate."""
        hist = shared_node_counts(box_mesh(2, 2))
        assert {m: int(c) for m, c in enumerate(hist) if c} == {
            1: 4**3,
            2: 3 * 4**2,
            4: 3 * 4,
            8: 1,
        }
