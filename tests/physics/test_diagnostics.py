"""Integral diagnostics: kinetic energy, enstrophy, mass."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.physics.diagnostics import (
    kinetic_energy,
    total_mass,
    volume_average,
)
from repro.physics.state import FlowState
from repro.physics.gas import GasProperties
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial


class TestVolumeAverage:
    def test_uniform_field(self):
        weights = np.array([1.0, 2.0, 3.0])
        assert volume_average(np.full(3, 7.0), weights) == pytest.approx(7.0)

    def test_weighting(self):
        weights = np.array([1.0, 3.0])
        field = np.array([0.0, 4.0])
        assert volume_average(field, weights) == pytest.approx(3.0)

    def test_shape_mismatch(self):
        with pytest.raises(PhysicsError):
            volume_average(np.ones(3), np.ones(4))


class TestTGVEnergies:
    def test_initial_kinetic_energy_is_eighth(self, small_periodic_mesh):
        """(1/V) int rho |u|^2/2 dV = rho0 V0^2 / 8 for the 3D TGV."""
        from repro.fem.assembly import lumped_mass
        from repro.fem.geometry import compute_geometry
        from repro.fem.reference import reference_hex

        mesh = small_periodic_mesh
        ref = reference_hex(2)
        geom = compute_geometry(mesh.corner_coords, ref)
        mass = lumped_mass(mesh.connectivity, mesh.num_nodes, geom, ref)
        state = taylor_green_initial(mesh.coords)
        ek = kinetic_energy(state, mass)
        assert ek == pytest.approx(0.125, rel=2e-2)

    def test_total_mass_scales_with_density(self, small_periodic_mesh):
        from repro.fem.assembly import lumped_mass
        from repro.fem.geometry import compute_geometry
        from repro.fem.reference import reference_hex

        mesh = small_periodic_mesh
        ref = reference_hex(2)
        geom = compute_geometry(mesh.corner_coords, ref)
        mass_w = lumped_mass(mesh.connectivity, mesh.num_nodes, geom, ref)
        state = FlowState.from_primitive(
            np.full(mesh.num_nodes, 2.0),
            np.zeros((3, mesh.num_nodes)),
            np.full(mesh.num_nodes, 300.0),
            GasProperties(),
        )
        assert total_mass(state, mass_w) == pytest.approx(
            2.0 * (2 * np.pi) ** 3, rel=1e-12
        )
