"""Element volumes, spacings and quality reporting."""

from dataclasses import replace

import numpy as np
import pytest

from repro.mesh.hexmesh import box_mesh, channel_mesh, periodic_box_mesh
from repro.mesh.metrics import (
    element_min_spacing,
    element_volumes,
)


class TestVolumes:
    def test_uniform_elements_equal_volume(self):
        mesh = periodic_box_mesh(3, 2)
        vols = element_volumes(mesh)
        assert np.allclose(vols, vols[0])
        assert vols.sum() == pytest.approx((2 * np.pi) ** 3, rel=1e-12)

    def test_box_mesh_volume(self):
        mesh = box_mesh(2, 2, domain=((0, 1), (0, 1), (0, 1)))
        assert element_volumes(mesh).sum() == pytest.approx(1.0, rel=1e-12)


class TestSpacing:
    def test_order2_spacing_is_half_element(self):
        # Order-2 GLL points {-1, 0, 1} are evenly spaced: min = h/2.
        mesh = periodic_box_mesh(3, 2)
        h_elem = 2 * np.pi / 3
        spacing = element_min_spacing(mesh)
        assert np.allclose(spacing, h_elem / 2)

    def test_order4_clusters_below_uniform(self):
        # From order 3 up, GLL nodes cluster at the ends: min < h/p.
        mesh = periodic_box_mesh(2, 4)
        h_elem = 2 * np.pi / 2
        spacing = element_min_spacing(mesh)
        assert (spacing < h_elem / 4).all()
        assert (spacing > 0).all()

    def test_spacing_scales_with_resolution(self):
        coarse = element_min_spacing(periodic_box_mesh(2, 2)).min()
        fine = element_min_spacing(periodic_box_mesh(4, 2)).min()
        assert fine == pytest.approx(coarse / 2, rel=1e-10)

    def test_higher_order_clusters_tighter(self):
        p2 = element_min_spacing(periodic_box_mesh(2, 2)).min()
        p4 = element_min_spacing(periodic_box_mesh(2, 4)).min()
        assert p4 < p2


def norm_min_spacing(mesh):
    """The ``np.linalg.norm`` formula of the spacing, kept as the oracle."""
    n1 = mesh.nodes_per_direction
    grid = mesh.element_node_coords().reshape(
        mesh.num_elements, n1, n1, n1, 3
    )
    per_axis = [
        np.linalg.norm(np.diff(grid, axis=axis), axis=-1)
        .reshape(mesh.num_elements, -1)
        .min(axis=1)
        for axis in (3, 2, 1)
    ]
    return np.minimum(per_axis[0], np.minimum(per_axis[1], per_axis[2]))


def curved_box_mesh(order):
    """A box mesh whose nodes carry a cross-coordinate perturbation, so
    every element is curved and no spacing repeats."""
    mesh = box_mesh(3, order)
    x, y, z = mesh.coords.T
    coords = mesh.coords.copy()
    coords[:, 0] += 0.05 * np.sin(3.0 * y * z + 0.3)
    coords[:, 1] += 0.05 * np.sin(3.0 * z * x + 0.7)
    coords[:, 2] += 0.05 * np.sin(3.0 * x * y + 1.1)
    return replace(mesh, coords=coords)


class TestSpacingBitwise:
    @pytest.mark.parametrize("order", [2, 3, 5])
    @pytest.mark.parametrize(
        "build",
        [
            lambda p: periodic_box_mesh(3, p),
            lambda p: channel_mesh(2, p),
            curved_box_mesh,
        ],
        ids=["periodic", "channel", "curved"],
    )
    def test_matches_the_norm_formula(self, build, order):
        mesh = build(order)
        spacing = element_min_spacing(mesh)
        assert np.array_equal(spacing, norm_min_spacing(mesh))
        if build is curved_box_mesh:
            # The perturbation reaches the spacing: elements differ.
            assert np.unique(spacing).size > 1
