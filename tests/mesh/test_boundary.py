"""Boundary tagging and periodic image maps."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.mesh.boundary import (
    BoundaryTag,
    periodic_image_map,
    tag_box_boundaries,
)
from repro.mesh.hexmesh import box_mesh, channel_mesh, periodic_box_mesh


class TestTagging:
    def test_counts_on_box(self):
        mesh = box_mesh(2, 2)  # 5^3 nodes
        tags = tag_box_boundaries(mesh)
        boundary = np.count_nonzero(tags)
        assert boundary == 5**3 - 3**3  # shell minus interior

    def test_corner_node_has_three_flags(self):
        mesh = box_mesh(2, 2)
        tags = tag_box_boundaries(mesh)
        origin = np.nonzero(
            (np.abs(mesh.coords) < 1e-12).all(axis=1)
        )[0][0]
        tag = BoundaryTag(int(tags[origin]))
        assert tag & BoundaryTag.X_MIN
        assert tag & BoundaryTag.Y_MIN
        assert tag & BoundaryTag.Z_MIN

    def test_face_selection(self):
        mesh = box_mesh(2, 2)
        ids = np.nonzero(tag_box_boundaries(mesh) & int(BoundaryTag.X_MIN))[0]
        assert len(ids) == 25
        assert np.allclose(mesh.coords[ids, 0], 0.0)

    def test_periodic_mesh_rejected(self):
        mesh = periodic_box_mesh(2, 2)
        with pytest.raises(MeshError):
            tag_box_boundaries(mesh)


FACES = {
    BoundaryTag.X_MIN: (0, 0.0),
    BoundaryTag.X_MAX: (0, 2 * np.pi),
    BoundaryTag.Y_MIN: (1, 0.0),
    BoundaryTag.Y_MAX: (1, 2 * np.pi),
    BoundaryTag.Z_MIN: (2, 0.0),
    BoundaryTag.Z_MAX: (2, 2 * np.pi),
}


class TestFaces:
    @pytest.mark.parametrize("face", list(FACES), ids=lambda f: f.name)
    def test_face_holds_a_full_node_plane(self, face):
        mesh = box_mesh(2, 3)  # 7 nodes per direction
        ids = np.nonzero(tag_box_boundaries(mesh) & int(face))[0]
        axis, bound = FACES[face]
        assert len(ids) == 7**2
        assert np.allclose(mesh.coords[ids, axis], bound)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_opposite_faces_disjoint(self, axis):
        mesh = box_mesh(3, 1)
        tags = tag_box_boundaries(mesh)
        low, high = list(FACES)[2 * axis : 2 * axis + 2]
        both = (tags & int(low)).astype(bool) & (tags & int(high)).astype(bool)
        assert not both.any()

    def test_channel_mesh_tags_only_walls(self):
        mesh = channel_mesh(2, 2)
        tags = tag_box_boundaries(mesh)
        walls = int(BoundaryTag.Z_MIN | BoundaryTag.Z_MAX)
        assert np.all(tags & ~walls == 0)
        # x and y wrap (4 nodes each); z keeps both end planes (5 nodes)
        assert mesh.num_nodes == 4 * 4 * 5
        assert np.count_nonzero(tags) == 2 * 4 * 4


class TestPeriodicImages:
    def test_image_count(self):
        mesh = box_mesh(2, 2)
        pairs = periodic_image_map(mesh)
        # per axis: one 5x5 face of images
        assert len(pairs) == 3 * 25

    def test_images_differ_by_period(self):
        mesh = box_mesh(2, 2)
        for pair in periodic_image_map(mesh):
            delta = mesh.coords[pair.image] - mesh.coords[pair.primary]
            assert abs(delta[pair.axis]) == pytest.approx(2 * np.pi)

    def test_fused_mesh_has_fewer_nodes_by_image_count(self):
        box = box_mesh(2, 2)
        periodic = periodic_box_mesh(2, 2)
        images = periodic_image_map(box)
        unique_images = len({p.image for p in images})
        assert periodic.num_nodes == box.num_nodes - unique_images
