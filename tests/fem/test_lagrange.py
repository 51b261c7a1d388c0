"""Lagrange basis and spectral differentiation matrix."""

import numpy as np
import pytest

from repro.errors import FEMError
from repro.fem.gll import gll_points
from repro.fem.lagrange import (
    barycentric_weights,
    differentiation_matrix,
    lagrange_basis,
)


class TestBasis:
    def test_kronecker_property_at_nodes(self):
        nodes = gll_points(5)
        values = lagrange_basis(nodes, nodes)
        assert np.allclose(values, np.eye(5), atol=1e-13)

    def test_partition_of_unity(self):
        nodes = gll_points(6)
        x = np.linspace(-1, 1, 37)
        values = lagrange_basis(nodes, x)
        assert np.allclose(values.sum(axis=1), 1.0, atol=1e-12)

    def test_reproduces_polynomials_exactly(self):
        nodes = gll_points(4)  # degree-3 basis
        poly = lambda x: 2.0 - x + 3.0 * x**2 - 0.5 * x**3
        x = np.linspace(-1, 1, 21)
        interp = lagrange_basis(nodes, x) @ poly(nodes)
        assert np.allclose(interp, poly(x), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_maps_to_a_finer_gll_grid_exactly(self, n):
        """Order-n interpolation onto a finer GLL grid is exact for
        every polynomial of degree below n."""
        coarse, fine = gll_points(n), gll_points(2 * n + 1)
        matrix = lagrange_basis(coarse, fine)
        for degree in range(n):
            assert np.allclose(
                matrix @ coarse**degree, fine**degree, atol=1e-12
            )

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(FEMError):
            barycentric_weights(np.array([0.0, 0.5, 0.5]))

    def test_rejects_short_node_set(self):
        with pytest.raises(FEMError):
            barycentric_weights(np.array([1.0]))


class TestDifferentiationMatrix:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_derivative_of_constant_is_zero(self, n):
        d = differentiation_matrix(gll_points(n))
        assert np.allclose(d @ np.ones(n), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_exact_for_basis_degree(self, n):
        nodes = gll_points(n)
        d = differentiation_matrix(nodes)
        for degree in range(n):  # exact up to degree n-1
            values = nodes**degree
            expected = degree * nodes ** max(degree - 1, 0) if degree else 0 * nodes
            assert np.allclose(d @ values, expected, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_matches_derivative_of_the_basis(self, n):
        """Row i of D is the slope of every basis function at node i,
        checked by a central difference of :func:`lagrange_basis`."""
        nodes = gll_points(n)
        h = 1e-6
        slope = (
            lagrange_basis(nodes, nodes + h) - lagrange_basis(nodes, nodes - h)
        ) / (2 * h)
        d = differentiation_matrix(nodes)
        assert np.allclose(d, slope, atol=1e-6 * n**2)

    def test_antisymmetric_spectrum_structure(self):
        # Spectral D on symmetric nodes satisfies D = -J D J with J the
        # flip; equivalent to d[i, j] = -d[n-1-i, n-1-j].
        d = differentiation_matrix(gll_points(6))
        assert np.allclose(d, -d[::-1, ::-1], atol=1e-12)
