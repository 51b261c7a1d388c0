"""Element batching and working-set accounting."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.mesh.partition import (
    PARTITIONS,
    element_blocks,
    largest_part_size,
    partition_elements,
    partition_elements_balanced,
    slice_blocks,
)


class TestElementBlocks:
    def test_preserves_order_and_coverage(self):
        elements = np.array([9, 3, 7, 0, 5, 2, 8])
        blocks = element_blocks(elements, 3)
        assert [len(b) for b in blocks] == [3, 3, 1]
        assert np.array_equal(np.concatenate(blocks), elements)

    def test_non_divisor_leaves_short_tail(self):
        blocks = element_blocks(np.arange(27), 17)
        assert [len(b) for b in blocks] == [17, 10]

    def test_block_of_one_is_streaming(self):
        blocks = element_blocks(np.arange(4), 1)
        assert [b.tolist() for b in blocks] == [[0], [1], [2], [3]]

    def test_accepts_a_balanced_shard(self):
        part = partition_elements_balanced(27, 2)[1]
        blocks = element_blocks(part, 4)
        assert np.array_equal(np.concatenate(blocks), part)

    def test_rejects_bad_inputs(self):
        with pytest.raises(MeshError):
            element_blocks(np.arange(8), 0)
        with pytest.raises(MeshError):
            element_blocks(np.arange(8).reshape(2, 4), 2)


class TestSliceBlocks:
    def test_cuts_the_range_into_consecutive_slices(self):
        blocks = slice_blocks(5, 15, 4)
        assert blocks == [slice(5, 9), slice(9, 13), slice(13, 15)]

    def test_matches_element_blocks_of_the_range(self):
        elements = np.arange(30)
        for block_size in (1, 7, 30, 64):
            sliced = [elements[b] for b in slice_blocks(0, 30, block_size)]
            indexed = element_blocks(elements, block_size)
            assert len(sliced) == len(indexed)
            assert all(map(np.array_equal, sliced, indexed))

    def test_empty_range_and_bad_size(self):
        assert slice_blocks(3, 3, 4) == []
        with pytest.raises(MeshError):
            slice_blocks(0, 8, 0)


class TestContiguous:
    def test_covers_all_elements_once(self):
        batches = element_blocks(np.arange(100), 32)
        combined = np.concatenate(batches)
        assert np.array_equal(combined, np.arange(100))
        assert [len(b) for b in batches] == [32, 32, 32, 4]

    def test_single_batch(self):
        batches = element_blocks(np.arange(5), 10)
        assert len(batches) == 1 and len(batches[0]) == 5

    def test_rejects_bad_batch_size(self):
        with pytest.raises(MeshError):
            element_blocks(np.arange(10), 0)


class TestBalanced:
    def test_sizes_differ_by_at_most_one(self):
        parts = partition_elements_balanced(100, 7)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 100

    def test_exact_split(self):
        parts = partition_elements_balanced(9, 3)
        assert all(len(p) == 3 for p in parts)

    def test_more_parts_than_elements(self):
        parts = partition_elements_balanced(2, 5)
        assert sum(len(p) for p in parts) == 2


class TestStrategies:
    @pytest.mark.parametrize("strategy", PARTITIONS)
    def test_largest_part_size_is_the_largest_shard(self, strategy):
        for num_elements in range(1, 601):
            for num_parts in range(1, min(4, num_elements) + 1):
                parts = partition_elements(num_elements, num_parts, strategy)
                assert len(parts) == num_parts
                assert np.array_equal(
                    np.concatenate(parts), np.arange(num_elements)
                )
                assert max(part.size for part in parts) == (
                    largest_part_size(num_elements, num_parts)
                )

    def test_contiguous_cuts_fixed_runs(self):
        sizes = [p.size for p in partition_elements(10, 4, "contiguous")]
        assert sizes == [3, 3, 3, 1]
        # ceil(9 / 4) = 3 fills only three parts: the balanced split
        # stands in.
        sizes = [p.size for p in partition_elements(9, 4, "contiguous")]
        assert sizes == [3, 2, 2, 2]

    def test_rejects_bad_inputs(self):
        with pytest.raises(MeshError):
            partition_elements(8, 2, "round-robin")
        with pytest.raises(MeshError):
            largest_part_size(8, 0)
