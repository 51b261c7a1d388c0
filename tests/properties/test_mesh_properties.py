"""Property-based tests on mesh generation and partitioning (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.hexmesh import box_mesh, channel_mesh, periodic_box_mesh
from repro.mesh.metrics import element_volumes
from repro.mesh.partition import element_blocks, partition_elements_balanced

small_k = st.integers(min_value=1, max_value=4)
small_p = st.integers(min_value=1, max_value=3)


class TestGeneratorInvariants:
    @given(k=small_k, p=small_p)
    @settings(max_examples=20, deadline=None)
    def test_periodic_counts(self, k, p):
        from hypothesis import assume

        assume(k * p >= 2)  # single-point periodic directions are rejected
        mesh = periodic_box_mesh(k, p)
        assert mesh.num_elements == k**3
        assert mesh.num_nodes == (k * p) ** 3
        mesh.validate()

    def test_degenerate_periodic_rejected(self):
        from repro.errors import MeshError

        with pytest.raises(MeshError, match="wrap onto itself"):
            periodic_box_mesh(1, 1)

    @given(k=small_k, p=small_p)
    @settings(max_examples=20, deadline=None)
    def test_box_counts(self, k, p):
        mesh = box_mesh(k, p)
        assert mesh.num_nodes == (k * p + 1) ** 3
        mesh.validate()

    @given(k=small_k, p=small_p)
    @settings(max_examples=15, deadline=None)
    def test_total_volume_independent_of_discretization(self, k, p):
        from hypothesis import assume

        assume(k * p >= 2)
        for builder in (periodic_box_mesh, box_mesh, channel_mesh):
            mesh = builder(k, p)
            assert element_volumes(mesh).sum() == pytest.approx(
                (2 * np.pi) ** 3, rel=1e-10
            )

    @given(k=small_k, p=small_p)
    @settings(max_examples=15, deadline=None)
    def test_every_node_referenced(self, k, p):
        from hypothesis import assume

        assume(k * p >= 2)
        mesh = channel_mesh(k, p)
        assert np.unique(mesh.connectivity).size == mesh.num_nodes


class TestPartitionInvariants:
    @given(
        n=st.integers(min_value=0, max_value=500),
        batch=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_contiguous_partition_is_exact_cover(self, n, batch):
        batches = element_blocks(np.arange(n), batch)
        combined = (
            np.concatenate(batches) if batches else np.array([], dtype=int)
        )
        assert np.array_equal(combined, np.arange(n))

    @given(
        n=st.integers(min_value=0, max_value=500),
        parts=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_balanced_partition_sizes(self, n, parts):
        result = partition_elements_balanced(n, parts)
        sizes = [len(p) for p in result]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
