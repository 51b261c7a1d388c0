"""Local node numbering conventions inside the hexahedral element."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.mesh.node_ordering import (
    local_node_index,
    local_node_triplet,
    nodes_per_direction,
)


class TestIndexing:
    def test_roundtrip_all_nodes(self):
        n1 = 4
        for local in range(n1**3):
            ix, iy, iz = local_node_triplet(local, n1)
            assert local_node_index(ix, iy, iz, n1) == local

    def test_x_fastest(self):
        assert local_node_index(1, 0, 0, 3) == 1
        assert local_node_index(0, 1, 0, 3) == 3
        assert local_node_index(0, 0, 1, 3) == 9

    def test_out_of_range_rejected(self):
        with pytest.raises(MeshError):
            local_node_index(3, 0, 0, 3)
        with pytest.raises(MeshError):
            local_node_triplet(27, 3)

    @pytest.mark.parametrize("n1", [2, 3, 4, 6])
    def test_matches_numpy_c_order_with_z_slowest(self, n1):
        iz, iy, ix = np.unravel_index(np.arange(n1**3), (n1, n1, n1))
        for local, triplet in enumerate(zip(ix, iy, iz)):
            assert local_node_index(*map(int, triplet), n1) == local

    @pytest.mark.parametrize("n1", [2, 3, 5])
    def test_first_and_last_index_are_opposite_corners(self, n1):
        assert local_node_triplet(0, n1) == (0, 0, 0)
        assert local_node_triplet(n1**3 - 1, n1) == (n1 - 1,) * 3

    def test_nodes_per_direction(self):
        assert nodes_per_direction(2) == 3
        with pytest.raises(MeshError):
            nodes_per_direction(0)
