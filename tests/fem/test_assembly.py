"""Gather/scatter assembly and the lumped mass matrix."""

import numpy as np
import pytest

from repro.errors import FEMError
from repro.fem.assembly import (
    assembly_multiplicity,
    gather,
    lumped_mass,
    scatter_add,
    scatter_add_many,
)
from repro.fem.geometry import compute_geometry


@pytest.fixture(scope="module")
def assembled(small_periodic_mesh_module=None):
    from repro.fem.reference import reference_hex
    from repro.mesh.hexmesh import periodic_box_mesh

    mesh = periodic_box_mesh(3, 2)
    ref = reference_hex(2)
    geom = compute_geometry(mesh.corner_coords, ref)
    return mesh, geom, ref


class TestGatherScatter:
    def test_gather_then_scatter_multiplies_by_multiplicity(self, assembled):
        mesh, _geom, _ref = assembled
        field = np.arange(mesh.num_nodes, dtype=float)
        gathered = gather(field, mesh.connectivity)
        back = scatter_add(gathered, mesh.connectivity, mesh.num_nodes)
        mult = assembly_multiplicity(mesh.connectivity, mesh.num_nodes)
        assert np.allclose(back, field * mult)

    def test_gather_stacked_fields(self, assembled):
        mesh, _geom, _ref = assembled
        fields = np.stack(
            [np.arange(mesh.num_nodes, dtype=float), np.ones(mesh.num_nodes)]
        )
        gathered = gather(fields, mesh.connectivity)
        assert gathered.shape == (2, mesh.num_elements, 27)
        assert np.allclose(gathered[1], 1.0)

    def test_averaged_scatter_makes_copies_agree(self, assembled):
        """Summing element copies and dividing by multiplicity (the
        direct-stiffness average) leaves one value per shared node, so
        every element copy of a node gathers back the same number."""
        mesh, _geom, _ref = assembled
        local = np.random.default_rng(6).normal(size=mesh.connectivity.shape)
        mult = assembly_multiplicity(mesh.connectivity, mesh.num_nodes)
        averaged = scatter_add(local, mesh.connectivity, mesh.num_nodes) / mult
        copies = gather(averaged, mesh.connectivity)
        for node in (0, mesh.num_nodes // 2, mesh.num_nodes - 1):
            values = copies[mesh.connectivity == node]
            assert len(values) == mult[node]
            assert np.all(values == values[0])
            mean = local[mesh.connectivity == node].mean()
            assert values[0] == pytest.approx(mean)

    def test_scatter_preserves_total(self, assembled, rng=None):
        mesh, _geom, _ref = assembled
        values = np.random.default_rng(7).normal(
            size=(mesh.num_elements, 27)
        )
        out = scatter_add(values, mesh.connectivity, mesh.num_nodes)
        assert out.sum() == pytest.approx(values.sum(), rel=1e-12)

    def test_scatter_many_matches_loop(self, assembled):
        mesh, _geom, _ref = assembled
        values = np.random.default_rng(8).normal(
            size=(3, mesh.num_elements, 27)
        )
        many = scatter_add_many(values, mesh.connectivity, mesh.num_nodes)
        for i in range(3):
            single = scatter_add(values[i], mesh.connectivity, mesh.num_nodes)
            assert np.allclose(many[i], single)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_float32_accumulate_equals_2d_add_at(self, assembled, shuffle):
        """The f32 reduction is bitwise the per-element 2-D ``np.add.at``
        in flat element order, for strided values and permuted rows."""
        mesh, _geom, _ref = assembled
        rng = np.random.default_rng(11)
        connectivity = mesh.connectivity
        if shuffle:
            connectivity = connectivity[rng.permutation(mesh.num_elements)]
        values = rng.normal(size=(mesh.num_elements, 27, 2)).astype(
            np.float32
        )[..., 0]
        out = scatter_add(
            values, connectivity, mesh.num_nodes, accumulate_dtype=np.float32
        )
        oracle = np.zeros(mesh.num_nodes, dtype=np.float32)
        np.add.at(oracle, connectivity, values)
        assert out.dtype == np.float32
        assert np.array_equal(out, oracle)

    def test_shape_mismatch_rejected(self, assembled):
        mesh, _geom, _ref = assembled
        with pytest.raises(FEMError):
            scatter_add(
                np.zeros((mesh.num_elements, 5)),
                mesh.connectivity,
                mesh.num_nodes,
            )

    def test_scatter_preserves_float32_dtype(self, assembled):
        """Regression: scatter_add silently upcast float32 to float64 via
        np.ascontiguousarray(..., dtype=np.float64). The accumulation
        stays in float64 but the result must come back in the input
        dtype."""
        mesh, _geom, _ref = assembled
        values = (
            np.random.default_rng(10)
            .normal(size=(mesh.num_elements, 27))
            .astype(np.float32)
        )
        out = scatter_add(values, mesh.connectivity, mesh.num_nodes)
        assert out.dtype == np.float32
        exact = scatter_add(
            values.astype(np.float64), mesh.connectivity, mesh.num_nodes
        )
        assert exact.dtype == np.float64
        assert np.array_equal(out, exact.astype(np.float32))
        many = scatter_add_many(
            values[None], mesh.connectivity, mesh.num_nodes
        )
        assert many.dtype == np.float32


class TestLumpedMass:
    def test_total_mass_is_domain_volume(self, assembled):
        mesh, geom, ref = assembled
        mass = lumped_mass(mesh.connectivity, mesh.num_nodes, geom, ref)
        assert mass.sum() == pytest.approx((2 * np.pi) ** 3, rel=1e-12)

    def test_all_entries_positive(self, assembled):
        mesh, geom, ref = assembled
        mass = lumped_mass(mesh.connectivity, mesh.num_nodes, geom, ref)
        assert (mass > 0).all()

    def test_uniform_mesh_mass_pattern(self, assembled):
        """On the uniform periodic mesh every node sees identical total
        w*|J| regardless of multiplicity class only for matching GLL
        weights; at least the distinct values must be few."""
        mesh, geom, ref = assembled
        mass = lumped_mass(mesh.connectivity, mesh.num_nodes, geom, ref)
        distinct = np.unique(np.round(mass, 10))
        # order-2 periodic mesh: corner/edge/face/interior node classes
        assert len(distinct) <= 4
