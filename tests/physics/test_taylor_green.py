"""Taylor-Green Vortex case definitions and reference solutions."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.physics.taylor_green import (
    DEFAULT_TGV,
    TGVCase,
    taylor_green_2d_exact,
    taylor_green_2d_initial,
    taylor_green_initial,
)


class TestCase:
    def test_default_parameters(self):
        assert DEFAULT_TGV.mach == 0.1
        assert DEFAULT_TGV.reynolds == 1600.0

    def test_derived_quantities_consistent(self):
        case = TGVCase(mach=0.1, reynolds=1600.0)
        assert case.sound_speed0 == pytest.approx(10.0)
        gas = case.gas()
        assert gas.sound_speed(np.array([case.temperature0]))[0] == (
            pytest.approx(case.sound_speed0)
        )
        assert case.viscosity == pytest.approx(1.0 / 1600.0)

    def test_pressure0_ideal_gas(self):
        case = TGVCase()
        assert case.pressure0 == pytest.approx(
            case.rho0 * case.gas_constant * case.temperature0
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reynolds": 0.0},
            {"length": 0.0},
            {"velocity": -1.0},
            {"rho0": 0.0},
        ],
    )
    def test_invalid_scales_rejected(self, kwargs):
        with pytest.raises(PhysicsError):
            TGVCase(**kwargs)

    @pytest.mark.parametrize("mach", [0.0, 1.0, 1.5])
    def test_invalid_mach_rejected(self, mach):
        with pytest.raises(PhysicsError):
            TGVCase(mach=mach)


class TestInitial3D:
    @pytest.fixture()
    def coords(self, small_periodic_mesh):
        return small_periodic_mesh.coords

    def test_peak_velocity(self, coords):
        state = taylor_green_initial(coords)
        speed = np.sqrt(np.sum(state.velocity() ** 2, axis=0))
        assert speed.max() <= DEFAULT_TGV.velocity + 1e-12

    def test_w_component_zero(self, coords):
        state = taylor_green_initial(coords)
        assert np.allclose(state.velocity()[2], 0.0)

    def test_divergence_free_velocity_analytically(self):
        # du/dx + dv/dy = V0 cos x cos y cos z - V0 cos x cos y cos z = 0
        x = np.array([[0.3, 0.7, 1.1]])
        eps = 1e-6
        def u_of(pt):
            state = taylor_green_initial(pt)
            return state.velocity()
        base = np.array([0.3, 0.7, 1.1])
        div = 0.0
        for d in range(3):
            plus = base.copy(); plus[d] += eps
            minus = base.copy(); minus[d] -= eps
            du = (u_of(plus[None])[d, 0] - u_of(minus[None])[d, 0]) / (2 * eps)
            div += du
        assert div == pytest.approx(0.0, abs=1e-8)

    def test_pressure_field_matches_formula(self, coords):
        state = taylor_green_initial(coords)
        gas = DEFAULT_TGV.gas()
        p = state.pressure(gas)
        x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
        expected = DEFAULT_TGV.pressure0 + (1.0 / 16.0) * (
            np.cos(2 * x) + np.cos(2 * y)
        ) * (np.cos(2 * z) + 2.0)
        assert np.allclose(p, expected, rtol=1e-10)

    def test_isothermal_start(self, coords):
        state = taylor_green_initial(coords)
        temp = state.temperature(DEFAULT_TGV.gas())
        assert np.allclose(temp, DEFAULT_TGV.temperature0, rtol=1e-12)

    def test_state_is_physical(self, coords):
        taylor_green_initial(coords).validate()


class TestExact2D:
    def test_decay_rate(self, small_periodic_mesh):
        coords = small_periodic_mesh.coords
        case = TGVCase(reynolds=100.0)
        v0, _ = taylor_green_2d_exact(coords, 0.0, case)
        v1, _ = taylor_green_2d_exact(coords, 1.0, case)
        nu = case.viscosity / case.rho0
        assert np.allclose(v1, v0 * np.exp(-2 * nu), atol=1e-12)

    def test_z_invariance(self, small_periodic_mesh):
        coords = small_periodic_mesh.coords.copy()
        v_a, _ = taylor_green_2d_exact(coords, 0.5)
        coords[:, 2] += 1.234
        v_b, _ = taylor_green_2d_exact(coords, 0.5)
        assert np.allclose(v_a, v_b)

    def test_initial_state_matches_exact(self, small_periodic_mesh):
        coords = small_periodic_mesh.coords
        state = taylor_green_2d_initial(coords)
        v_exact, _ = taylor_green_2d_exact(coords, 0.0)
        assert np.allclose(state.velocity(), v_exact, atol=1e-12)
