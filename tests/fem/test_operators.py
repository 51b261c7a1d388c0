"""Element operators: gradients, weak divergence, integrals."""

import numpy as np
import pytest

from repro.errors import FEMError
from repro.fem.geometry import compute_geometry
from repro.fem.operators import (
    element_mass_matrix_diagonal,
    physical_gradient,
    physical_gradient_many,
    reference_gradient,
    weak_divergence,
)
from repro.mesh.hexmesh import periodic_box_mesh


@pytest.fixture(scope="module")
def mesh_geom_ref():
    from repro.fem.reference import reference_hex

    mesh = periodic_box_mesh(3, 2)
    ref = reference_hex(2)
    geom = compute_geometry(mesh.corner_coords, ref)
    return mesh, geom, ref


class TestGradients:
    def test_gradient_of_constant_is_zero(self, mesh_geom_ref):
        mesh, geom, ref = mesh_geom_ref
        field = np.ones((mesh.num_elements, ref.num_nodes))
        grad = physical_gradient(field, geom, ref)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_gradient_of_linear_field_exact(self, mesh_geom_ref):
        mesh, geom, ref = mesh_geom_ref
        coords = mesh.element_node_coords()
        field = 2.0 * coords[:, :, 0] - 3.0 * coords[:, :, 1] + 0.5 * coords[:, :, 2]
        grad = physical_gradient(field, geom, ref)
        assert np.allclose(grad[:, :, 0], 2.0, atol=1e-11)
        assert np.allclose(grad[:, :, 1], -3.0, atol=1e-11)
        assert np.allclose(grad[:, :, 2], 0.5, atol=1e-11)

    def test_gradient_of_quadratic_exact_at_order2(self, mesh_geom_ref):
        mesh, geom, ref = mesh_geom_ref
        coords = mesh.element_node_coords()
        x = coords[:, :, 0]
        grad = physical_gradient(x**2, geom, ref)
        assert np.allclose(grad[:, :, 0], 2.0 * x, atol=1e-10)

    def test_reference_gradient_shape(self, mesh_geom_ref):
        mesh, _geom, ref = mesh_geom_ref
        field = np.zeros((mesh.num_elements, ref.num_nodes))
        assert reference_gradient(field, ref).shape == (
            mesh.num_elements,
            3,
            ref.num_nodes,
        )

    def test_batched_gradient_matches_single(self, mesh_geom_ref, rng):
        mesh, geom, ref = mesh_geom_ref
        fields = rng.normal(size=(2, mesh.num_elements, ref.num_nodes))
        batched = physical_gradient_many(fields, geom, ref)
        for i in range(2):
            single = physical_gradient(fields[i], geom, ref)
            assert np.allclose(batched[i], single)

    def test_wrong_shape_rejected(self, mesh_geom_ref):
        _mesh, geom, ref = mesh_geom_ref
        with pytest.raises(FEMError):
            physical_gradient(np.zeros((4, 5)), geom, ref)


class TestWeakDivergence:
    def test_constant_flux_has_zero_assembled_divergence(self, mesh_geom_ref):
        """div of a constant field is zero after assembly on a periodic
        mesh (element-level residuals cancel at shared nodes)."""
        from repro.fem.assembly import scatter_add

        mesh, geom, ref = mesh_geom_ref
        flux = np.ones((mesh.num_elements, ref.num_nodes, 3))
        res = weak_divergence(flux, geom, ref)
        assembled = scatter_add(res, mesh.connectivity, mesh.num_nodes)
        assert np.allclose(assembled, 0.0, atol=1e-11)

    def test_total_residual_is_zero_for_any_flux(self, mesh_geom_ref, rng):
        """sum_i N_i = 1 implies the residuals sum to zero — the discrete
        conservation property behind the exact mass conservation."""
        mesh, geom, ref = mesh_geom_ref
        flux = rng.normal(size=(mesh.num_elements, ref.num_nodes, 3))
        res = weak_divergence(flux, geom, ref)
        assert res.sum() == pytest.approx(0.0, abs=1e-9)

    def test_linear_flux_divergence_value(self, mesh_geom_ref):
        """F = (x, 0, 0) has div F = 1: weak residual assembled and
        mass-inverted must equal 1 at interior consistency level."""
        from repro.fem.assembly import lumped_mass, scatter_add

        mesh, geom, ref = mesh_geom_ref
        coords = mesh.element_node_coords()
        flux = np.zeros((mesh.num_elements, ref.num_nodes, 3))
        flux[:, :, 0] = coords[:, :, 0]
        res = weak_divergence(flux, geom, ref)
        assembled = scatter_add(res, mesh.connectivity, mesh.num_nodes)
        mass = lumped_mass(mesh.connectivity, mesh.num_nodes, geom, ref)
        div = assembled / mass
        # On a periodic mesh, F = x is discontinuous at the wrap seam, so
        # check interior nodes only (away from the x-seam).
        interior = (mesh.coords[:, 0] > 1.0) & (mesh.coords[:, 0] < 5.0)
        assert np.allclose(div[interior], 1.0, atol=1e-9)

    def test_flux_shape_validation(self, mesh_geom_ref):
        mesh, geom, ref = mesh_geom_ref
        with pytest.raises(FEMError):
            weak_divergence(
                np.zeros((mesh.num_elements, ref.num_nodes, 2)), geom, ref
            )


class TestIntegrals:
    def test_integral_of_one_is_domain_volume(self, mesh_geom_ref):
        mesh, geom, ref = mesh_geom_ref
        ones = np.ones((mesh.num_elements, ref.num_nodes))
        total = (ones * geom.quadrature_scale(ref)).sum()
        assert total == pytest.approx((2 * np.pi) ** 3, rel=1e-12)

    def test_integral_of_sin_squared(self, mesh_geom_ref):
        mesh, geom, ref = mesh_geom_ref
        coords = mesh.element_node_coords()
        field = np.sin(coords[:, :, 0]) ** 2
        total = (field * geom.quadrature_scale(ref)).sum()
        exact = 0.5 * (2 * np.pi) ** 3
        assert total == pytest.approx(exact, rel=1e-3)

    def test_mass_diagonal_positive(self, mesh_geom_ref):
        _mesh, geom, ref = mesh_geom_ref
        diag = element_mass_matrix_diagonal(geom, ref)
        assert (diag > 0).all()


@pytest.fixture(scope="module", params=(1, 2, 3))
def order_geometries(request):
    """Mesh, reference element, affine + curved geometry at order ``p``."""
    from repro.fem.reference import reference_hex

    p = request.param
    mesh = periodic_box_mesh(2, p)
    ref = reference_hex(p)
    corners = mesh.corner_coords.copy()
    x, y, z = (mesh.corner_coords[..., i] for i in range(3))
    corners[..., 0] += 0.05 * np.sin(y * z / 4.0 + 0.3)
    corners[..., 1] += 0.05 * np.sin(z * x / 4.0 + 0.7)
    corners[..., 2] += 0.05 * np.sin(x * y / 4.0 + 1.1)
    geoms = {
        "affine": compute_geometry(mesh.corner_coords, ref),
        "curved": compute_geometry(corners, ref),
    }
    assert geoms["affine"].is_affine and not geoms["curved"].is_affine
    return mesh, ref, geoms, np.random.default_rng(4321 + p)


def _kron_gradient_matrices(ref) -> np.ndarray:
    """``(3, Q, Q)`` nodal differentiation matrices along xi, eta, zeta.

    Built from the 1-D matrix by Kronecker products over the lexicographic
    ``[z, y, x]`` node order — an assembly independent of the tensor
    contractions the operators use.
    """
    eye = np.eye(ref.n1)
    d = ref.diff
    return np.stack(
        [
            np.kron(eye, np.kron(eye, d)),
            np.kron(eye, np.kron(d, eye)),
            np.kron(d, np.kron(eye, eye)),
        ]
    )


def _per_node_inverse(geom, ref) -> np.ndarray:
    inv = geom.inverse_jacobian
    return np.broadcast_to(inv, (inv.shape[0], ref.num_nodes, 3, 3))


class TestContractionsMatchKroneckerForm:
    """The sum-factorised einsum contractions against dense Kronecker
    operators: same maths, assembled a different way."""

    def test_reference_gradient(self, order_geometries):
        mesh, ref, _geoms, rng = order_geometries
        field = rng.standard_normal((mesh.num_elements, ref.num_nodes))
        expected = np.einsum(
            "rqa,ea->erq", _kron_gradient_matrices(ref), field
        )
        got = reference_gradient(field, ref)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_physical_gradient(self, order_geometries, geometry):
        mesh, ref, geoms, rng = order_geometries
        geom = geoms[geometry]
        field = rng.standard_normal((mesh.num_elements, ref.num_nodes))
        ref_grad = _kron_gradient_matrices(ref) @ field.T  # (3, Q, E)
        inv = _per_node_inverse(geom, ref)
        expected = np.zeros((mesh.num_elements, ref.num_nodes, 3))
        for r in range(3):
            expected += ref_grad[r].T[:, :, None] * inv[:, :, r, :]
        got = physical_gradient(field, geom, ref)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_weak_divergence(self, order_geometries, geometry):
        mesh, ref, geoms, rng = order_geometries
        geom = geoms[geometry]
        flux = rng.standard_normal((mesh.num_elements, ref.num_nodes, 3))
        inv = _per_node_inverse(geom, ref)
        scale = geom.quadrature_scale(ref)
        contravariant = np.zeros((3, mesh.num_elements, ref.num_nodes))
        for r in range(3):
            for p in range(3):
                contravariant[r] += inv[:, :, r, p] * flux[:, :, p]
        contravariant *= scale[None]
        grads = _kron_gradient_matrices(ref)
        expected = -sum(contravariant[r] @ grads[r] for r in range(3))
        got = weak_divergence(flux, geom, ref)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_element_integrals(self, order_geometries, geometry):
        import math

        mesh, ref, geoms, rng = order_geometries
        geom = geoms[geometry]
        field = rng.standard_normal((mesh.num_elements, ref.num_nodes))
        weights = ref.weights_flat() * np.abs(
            np.broadcast_to(geom.det_jacobian, field.shape)
        )
        expected = [
            math.fsum(field[e] * weights[e]) for e in range(field.shape[0])
        ]
        got = (field * geom.quadrature_scale(ref)).sum(axis=1)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-14)
