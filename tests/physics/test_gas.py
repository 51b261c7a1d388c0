"""Ideal-gas constitutive relations."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.physics.gas import GasProperties


class TestProperties:
    def test_specific_heats(self):
        gas = GasProperties(gamma=1.4, gas_constant=287.0)
        assert gas.cv == pytest.approx(287.0 / 0.4)
        assert gas.cp == pytest.approx(1.4 * 287.0 / 0.4)
        assert gas.cp - gas.cv == pytest.approx(287.0)

    def test_thermal_conductivity(self):
        gas = GasProperties(viscosity=1e-3, prandtl=0.71)
        assert gas.thermal_conductivity == pytest.approx(
            gas.cp * 1e-3 / 0.71
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 1.0},
            {"gamma": 0.9},
            {"gas_constant": 0.0},
            {"viscosity": -1.0},
            {"prandtl": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(PhysicsError):
            GasProperties(**kwargs)


class TestRelations:
    def test_pressure_is_ideal_gas_law(self):
        gas = GasProperties()
        rho = np.array([1.0, 2.0])
        temp = np.array([300.0, 250.0])
        p = gas.pressure(rho, temp)
        assert np.allclose(p / (rho * gas.gas_constant), temp)

    def test_internal_energy_roundtrip(self):
        gas = GasProperties()
        temp = np.array([300.0])
        e = gas.internal_energy(temp)
        assert np.allclose(gas.temperature_from_internal_energy(e), temp)

    def test_sound_speed_air_at_300k(self):
        gas = GasProperties(gamma=1.4, gas_constant=287.0)
        c = gas.sound_speed(np.array([300.0]))
        assert c[0] == pytest.approx(347.2, rel=1e-3)

    def test_sound_speed_rejects_negative_temperature(self):
        gas = GasProperties()
        with pytest.raises(PhysicsError):
            gas.sound_speed(np.array([-1.0]))
