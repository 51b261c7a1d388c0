"""Structured box mesh generators and the HexMesh container."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import MeshError
from repro.mesh.hexmesh import (
    HexMesh,
    box_mesh,
    periodic_box_mesh,
)
from repro.mesh.node_ordering import local_node_index


class TestPeriodicMesh:
    def test_node_and_element_counts(self):
        for k, p in [(2, 2), (3, 2), (4, 2), (2, 3)]:
            mesh = periodic_box_mesh(k, p)
            assert mesh.num_elements == k**3
            assert mesh.num_nodes == (k * p) ** 3

    def test_validates(self, small_periodic_mesh):
        small_periodic_mesh.validate()

    def test_coordinates_within_domain(self, small_periodic_mesh):
        coords = small_periodic_mesh.coords
        assert coords.min() >= 0.0
        assert coords.max() < 2 * np.pi  # periodic: right endpoint dropped

    def test_connectivity_wraps(self):
        mesh = periodic_box_mesh(2, 2)
        # the last element along x must reference node column 0
        conn = mesh.connectivity
        referenced = np.unique(conn)
        assert referenced.size == mesh.num_nodes  # all nodes used

    def test_element_node_coords_contiguous(self, small_periodic_mesh):
        """Unwrapped element nodes must lie inside the element's box."""
        coords = small_periodic_mesh.element_node_coords()
        lows = small_periodic_mesh.corner_coords.min(axis=1)
        highs = small_periodic_mesh.corner_coords.max(axis=1)
        assert (coords >= lows[:, None, :] - 1e-12).all()
        assert (coords <= highs[:, None, :] + 1e-12).all()

    def test_node_sharing_multiplicity(self):
        from repro.mesh.connectivity import shared_node_counts

        mesh = periodic_box_mesh(3, 2)
        hist = shared_node_counts(mesh)
        # Order-2 periodic classes per element: 1 center (mult 1),
        # 6 face centers (mult 2, /2), 12 edge centers (mult 4, /4),
        # 8 corners (mult 8, /8).
        e = mesh.num_elements
        assert hist[1] == e
        assert hist[2] == 3 * e
        assert hist[4] == 3 * e
        assert hist[8] == e
        assert hist.sum() - hist[0] == mesh.num_nodes


class TestDerivedMemo:
    """Mesh-only data is built once per mesh, shared read-only, and
    never carried over to a mesh derived with ``dataclasses.replace``."""

    def test_replace_starts_an_empty_memo(self):
        mesh = box_mesh(2, 2)
        old = mesh.element_node_coords()
        moved = replace(mesh, coords=2.0 * mesh.coords)
        new = moved.element_node_coords()
        assert new is not old
        assert np.array_equal(new, moved.coords[moved.connectivity])
        assert np.array_equal(new, 2.0 * old)

    def test_built_once(self):
        mesh = periodic_box_mesh(2, 2)
        builds = []

        def build():
            builds.append(1)
            return np.arange(3.0)

        first = mesh.derived("probe", build)
        assert mesh.derived("probe", build) is first
        assert len(builds) == 1

    def test_memoized_arrays_are_read_only(self):
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.navier_stokes import NavierStokesOperator

        mesh = periodic_box_mesh(2, 2)
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas())
        assert NavierStokesOperator(mesh, DEFAULT_TGV.gas()).geom is op.geom
        arrays = [
            mesh.element_node_coords(),
            op.mass,
            op.geom.jacobian,
            op.geom.inverse_jacobian,
            op.geom.det_jacobian,
        ]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


class TestBoxMesh:
    def test_counts(self):
        mesh = box_mesh(3, 2)
        assert mesh.num_elements == 27
        assert mesh.num_nodes == 7**3

    def test_includes_endpoints(self):
        mesh = box_mesh(2, 2)
        assert mesh.coords[:, 0].max() == pytest.approx(2 * np.pi)
        assert mesh.coords[:, 0].min() == pytest.approx(0.0)

    def test_validates(self, small_box_mesh):
        small_box_mesh.validate()

    def test_corner_coords_in_vtk_order(self):
        """``corner_coords`` are each element's extreme nodes in VTK
        hexahedron order."""
        mesh = box_mesh(2, 3)
        m = 3
        vtk = [
            (0, 0, 0),
            (m, 0, 0),
            (m, m, 0),
            (0, m, 0),
            (0, 0, m),
            (m, 0, m),
            (m, m, m),
            (0, m, m),
        ]
        corners = [local_node_index(*t, m + 1) for t in vtk]
        coords = mesh.coords[mesh.connectivity[:, corners]]
        assert np.allclose(coords, mesh.corner_coords)

    @pytest.mark.parametrize("make", [box_mesh, periodic_box_mesh])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_corner_coords_span_one_element(self, make, order):
        """Corners 0 and 6 are opposite: they differ by one element
        width on every axis, also for wrapping periodic elements."""
        k = 3
        mesh = make(k, order)
        span = mesh.corner_coords[:, 6] - mesh.corner_coords[:, 0]
        assert np.allclose(span, 2 * np.pi / k)


class TestCustomDomain:
    def test_unit_cube_domain(self):
        dom = ((0.0, 1.0),) * 3
        mesh = periodic_box_mesh(2, 2, domain=dom)
        assert mesh.coords.max() < 1.0
        from repro.mesh.metrics import element_volumes

        assert element_volumes(mesh).sum() == pytest.approx(1.0, rel=1e-12)

    def test_anisotropic_domain(self):
        dom = ((0.0, 1.0), (0.0, 2.0), (0.0, 4.0))
        mesh = box_mesh(2, 2, domain=dom)
        from repro.mesh.metrics import element_volumes

        assert element_volumes(mesh).sum() == pytest.approx(8.0, rel=1e-12)


class TestValidation:
    def test_orphan_node_detected(self, small_periodic_mesh):
        bad = HexMesh(
            polynomial_order=2,
            coords=np.vstack([small_periodic_mesh.coords, [[9.0, 9.0, 9.0]]]),
            connectivity=small_periodic_mesh.connectivity,
            corner_coords=small_periodic_mesh.corner_coords,
            periodic=True,
        )
        with pytest.raises(MeshError):
            bad.validate()

    def test_bad_connectivity_rejected(self, small_periodic_mesh):
        conn = small_periodic_mesh.connectivity.copy()
        conn[0, 0] = 10**6
        with pytest.raises(MeshError):
            HexMesh(
                polynomial_order=2,
                coords=small_periodic_mesh.coords,
                connectivity=conn,
                corner_coords=small_periodic_mesh.corner_coords,
                periodic=True,
            )


class TestElementsForNodeCount:
    """The shared periodic node->element arithmetic (used by both the
    workload characterization and the accelerator timing)."""

    def test_matches_generated_meshes(self):
        from repro.mesh.hexmesh import elements_for_node_count

        for k, p in ((2, 2), (3, 2), (2, 3)):
            mesh = periodic_box_mesh(k, p)
            assert (
                elements_for_node_count(mesh.num_nodes, p)
                == mesh.num_elements
            )

    def test_floors_at_one_element(self):
        from repro.mesh.hexmesh import elements_for_node_count

        assert elements_for_node_count(1, 7) == 1

    def test_rejects_nonpositive_nodes(self):
        from repro.errors import MeshError
        from repro.mesh.hexmesh import elements_for_node_count

        with pytest.raises(MeshError):
            elements_for_node_count(0)
