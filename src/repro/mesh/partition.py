"""Element batching/partitioning for streamed processing.

The accelerator streams elements through its Load-Compute-Store pipeline
in batches sized to the on-chip BRAM/URAM budget (paper Section III-A,
step 1: "data required for each element is transferred in batches").
These helpers produce the batch boundaries and orderings.
"""

from __future__ import annotations

import numpy as np

from ..errors import MeshError

#: Element-partition strategies for sharding the stream over CUs.
PARTITIONS = ("balanced", "contiguous")


def slice_blocks(start: int, stop: int, block_size: int) -> list[slice]:
    """Cut the contiguous range ``[start, stop)`` into consecutive
    slice tokens of at most ``block_size`` ids (the last may be short).

    A slice token *views* the rows it covers — a burst read, no index
    array, no copy. Raises :class:`~repro.errors.MeshError` if
    ``block_size < 1``.
    """
    if block_size < 1:
        raise MeshError("block_size must be >= 1")
    return [
        slice(first, min(first + block_size, stop))
        for first in range(start, stop, block_size)
    ]


def element_blocks(elements: np.ndarray, block_size: int) -> list[np.ndarray]:
    """Split an element-index array into blocks of at most ``block_size``.

    Parameters
    ----------
    elements:
        1-D array of element indices (any order; a CU's shard of the
        mesh). Order is preserved within and across blocks.
    block_size:
        Maximum elements per block; the final block may be short when
        ``block_size`` does not divide ``len(elements)``.

    Returns
    -------
    list[numpy.ndarray]
        The consecutive blocks: the *tokens* of a non-contiguous shard
        in the streaming co-simulation (a contiguous run streams
        :func:`slice_blocks` tokens instead).

    Raises
    ------
    MeshError
        If ``block_size < 1`` or ``elements`` is not 1-D.
    """
    elements = np.asarray(elements, dtype=np.int64)
    if elements.ndim != 1:
        raise MeshError("elements must be a 1-D index array")
    return [elements[s] for s in slice_blocks(0, elements.size, block_size)]


def largest_part_size(num_elements: int, num_parts: int) -> int:
    """``ceil(num_elements / num_parts)``: the first and largest shard
    of every :func:`partition_elements` strategy, so a closed form can
    price the slowest compute unit without building the shards."""
    if num_parts < 1:
        raise MeshError("num_parts must be >= 1")
    return -(-num_elements // num_parts)


def partition_elements_balanced(num_elements: int, num_parts: int) -> list[np.ndarray]:
    """Split elements into ``num_parts`` near-equal contiguous parts.

    Part sizes differ by at most one. Used when sizing multi-CU or
    multi-SLR variants in the ablation studies.
    """
    if num_parts < 1:
        raise MeshError("num_parts must be >= 1")
    if num_elements < 0:
        raise MeshError("num_elements must be >= 0")
    base = num_elements // num_parts
    rem = num_elements % num_parts
    parts: list[np.ndarray] = []
    start = 0
    for i in range(num_parts):
        size = base + (1 if i < rem else 0)
        parts.append(np.arange(start, start + size, dtype=np.int64))
        start += size
    return parts


def partition_elements(
    num_elements: int, num_parts: int, strategy: str
) -> list[np.ndarray]:
    """Element shards of one of the :data:`PARTITIONS` strategies.

    ``"balanced"`` splits near-equally; ``"contiguous"`` cuts fixed-size
    runs of :func:`largest_part_size` elements (the DDR-burst-friendly
    split), whose final shard may be short. When those runs cannot fill
    every part, the near-equal split — itself contiguous — stands in,
    so the shard count always matches ``num_parts``.
    """
    if strategy not in PARTITIONS:
        raise MeshError(
            f"partition must be one of {PARTITIONS}, got {strategy!r}"
        )
    if strategy == "contiguous":
        batch = largest_part_size(num_elements, num_parts)
        parts = element_blocks(np.arange(num_elements), batch)
        if len(parts) == num_parts:
            return parts
    return partition_elements_balanced(num_elements, num_parts)
