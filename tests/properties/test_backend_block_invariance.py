"""Block invariance of the ``fast`` backend's batched kernels (hypothesis).

The blocked residual, the co-simulator's per-element and per-batch
engines and the ``verify`` oracle replay all rest on one property: an
element's result does not depend on which other elements share its
kernel call. ``fast`` gets it by construction — every BLAS call has one
fixed shape per (field, element), and the curved metric is elementwise
arithmetic. Folding elements into GEMM rows would break it: with
OpenBLAS a row's result depends on the row count M. A float64
``(M, 27) @ (27, 27)`` GEMM (p=2's Kronecker zeta operator) returned
rows that differ from the ``M = 800`` call at 175 of the 299 values
``M = 1..299``; OpenBLAS 0.3.31, Haswell kernels.

For random splits of the elements into blocks (1- and 2-element blocks
included, in shuffled order too) and field counts (the fused ``F * E``
batch makes M a multiple of F), each block's ``physical_gradient_many``
and ``weak_divergence_many`` must be bitwise the matching rows of the
whole-batch call.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend import get_backend
from repro.fem.geometry import compute_geometry
from repro.fem.reference import reference_hex
from repro.mesh.hexmesh import periodic_box_mesh

NUM_ELEMENTS = 8


@lru_cache(maxsize=None)
def _geometry(order: int, geometry: str):
    """Reference element and metric terms of a 2³-element box."""
    mesh = periodic_box_mesh(2, order)
    if geometry == "curved":
        corners = mesh.corner_coords.copy()
        x, y, z = (mesh.corner_coords[..., i] for i in range(3))
        corners[..., 0] += 0.05 * np.sin(y * z / 4.0 + 0.3)
        corners[..., 1] += 0.05 * np.sin(z * x / 4.0 + 0.7)
        corners[..., 2] += 0.05 * np.sin(x * y / 4.0 + 1.1)
        mesh = replace(mesh, corner_coords=corners)
    ref = reference_hex(order)
    geom = compute_geometry(mesh.corner_coords, ref)
    assert geom.num_elements == NUM_ELEMENTS
    assert geom.is_affine == (geometry == "affine")
    return ref, geom


@st.composite
def element_blocks(draw):
    """A split of the elements into blocks, optionally shuffled."""
    order = np.arange(NUM_ELEMENTS)
    if draw(st.booleans()):
        order = np.array(draw(st.permutations(list(order))))
    blocks, start = [], 0
    while start < NUM_ELEMENTS:
        size = draw(st.integers(min_value=1, max_value=NUM_ELEMENTS - start))
        blocks.append(order[start : start + size])
        start += size
    return blocks


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", ["affine", "curved"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@given(
    blocks=element_blocks(),
    num_fields=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(
    blocks=[np.arange(0, 1), np.arange(1, 3), np.arange(3, NUM_ELEMENTS)],
    num_fields=5,
    seed=0,
)
@settings(max_examples=10, deadline=None)
def test_block_results_are_rows_of_the_whole_batch(
    order, geometry, dtype, blocks, num_fields, seed
):
    ref, geom = _geometry(order, geometry)
    backend = get_backend("fast")
    rng = np.random.default_rng(seed)
    nodes = ref.num_nodes
    shape = (num_fields, NUM_ELEMENTS, nodes)
    fields = rng.standard_normal(shape).astype(dtype)
    # Direction-major flux, the layout the pipeline's flux stage emits.
    flux_dm = rng.standard_normal(
        (num_fields, 3, NUM_ELEMENTS, nodes)
    ).astype(dtype)

    whole_grad = backend.physical_gradient_many(fields, geom, ref)
    whole_div = backend.weak_divergence_many(
        np.moveaxis(flux_dm, 1, -1), geom, ref
    )
    for idx in blocks:
        block_geom = geom.block_view(idx)
        grad = backend.physical_gradient_many(fields[:, idx], block_geom, ref)
        assert np.array_equal(grad, whole_grad[:, idx]), idx
        block_flux = np.moveaxis(np.ascontiguousarray(flux_dm[:, :, idx]), 1, -1)
        div = backend.weak_divergence_many(block_flux, block_geom, ref)
        assert np.array_equal(div, whole_div[:, idx]), idx
