"""Viscous stress tensor and vorticity."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.physics.viscous import stress_tensor, vorticity


class TestStressTensor:
    def test_zero_gradient_zero_stress(self):
        tau = stress_tensor(np.zeros((4, 3, 3)), 1e-3)
        assert np.allclose(tau, 0.0)

    def test_symmetric(self, rng):
        grad = rng.normal(size=(5, 3, 3))
        tau = stress_tensor(grad, 0.01)
        assert np.allclose(tau, np.swapaxes(tau, -1, -2))

    def test_traceless_for_any_gradient(self, rng):
        """With Stokes' hypothesis tau is deviatoric up to the symmetric
        part: trace(tau) = 2 mu div u - 2 mu div u = 0."""
        grad = rng.normal(size=(6, 3, 3))
        tau = stress_tensor(grad, 0.3)
        assert np.allclose(np.trace(tau, axis1=-2, axis2=-1), 0.0, atol=1e-12)

    def test_pure_shear_value(self):
        # du/dy = s: tau_xy = mu * s, diagonal zero.
        grad = np.zeros((1, 3, 3))
        grad[0, 0, 1] = 2.0
        tau = stress_tensor(grad, 0.5)
        assert tau[0, 0, 1] == pytest.approx(1.0)
        assert tau[0, 1, 0] == pytest.approx(1.0)
        assert np.allclose(np.diag(tau[0]), 0.0)

    def test_uniform_expansion(self):
        # grad u = a I: tau = 2 mu a I - (2/3) mu (3a) I = 0.
        grad = np.eye(3)[None] * 0.7
        tau = stress_tensor(grad, 0.1)
        assert np.allclose(tau, 0.0, atol=1e-14)

    def test_scaling_linear_in_viscosity(self, rng):
        grad = rng.normal(size=(2, 3, 3))
        assert np.allclose(
            stress_tensor(grad, 0.4), 2.0 * stress_tensor(grad, 0.2)
        )

    def test_bad_shape_rejected(self):
        with pytest.raises(PhysicsError):
            stress_tensor(np.zeros((3, 2, 3)), 0.1)


def dissipation(grad_u, viscosity):
    """Viscous dissipation tau : grad u, per point."""
    tau = stress_tensor(grad_u, viscosity)
    return np.einsum("...ij,...ij->...", tau, grad_u)


class TestDissipation:
    def test_zero_without_viscosity(self, rng):
        assert np.all(dissipation(rng.normal(size=(5, 3, 3)), 0.0) == 0.0)

    def test_pure_shear_value(self):
        # du/dy = s: tau:grad u = mu s^2.
        grad = np.zeros((1, 3, 3))
        grad[0, 0, 1] = 3.0
        assert dissipation(grad, 0.5)[0] == pytest.approx(4.5)

    def test_random_fields_nonnegative(self, rng):
        assert np.all(dissipation(rng.normal(size=(200, 3, 3)), 0.1) >= -1e-12)

    def test_rigid_rotation_dissipates_nothing(self):
        grad = np.zeros((1, 3, 3))
        grad[0, 0, 1] = -2.0
        grad[0, 1, 0] = 2.0
        assert dissipation(grad, 0.7)[0] == pytest.approx(0.0, abs=1e-14)


class TestKinematics:
    def test_vorticity_of_rigid_rotation(self):
        # u = Omega x r with Omega = (0, 0, w): du/dy = -w, dv/dx = w
        grad = np.zeros((1, 3, 3))
        grad[0, 0, 1] = -2.0
        grad[0, 1, 0] = 2.0
        w = vorticity(grad)
        assert np.allclose(w[0], [0.0, 0.0, 4.0])

    def test_vorticity_zero_for_symmetric_gradient(self, rng):
        sym = rng.normal(size=(4, 3, 3))
        sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
        assert np.allclose(vorticity(sym), 0.0, atol=1e-12)
