"""Wall-bounded channel flow: the solver's boundary-condition path."""

import numpy as np
import pytest

from repro.mesh.hexmesh import channel_mesh
from repro.physics.channel import (
    decaying_shear_exact,
    decaying_shear_initial,
    shear_decay_rate,
)
from repro.physics.taylor_green import TGVCase
from repro.solver.simulation import Simulation


@pytest.fixture(scope="module")
def channel_run():
    case = TGVCase(mach=0.05, reynolds=100.0)
    mesh = channel_mesh(4, 2)
    init = decaying_shear_initial(mesh.coords, case)
    sim = Simulation(mesh, case, initial_state=init, cfl=0.4)
    result = sim.run(40)
    return case, mesh, sim, result


class TestChannelMesh:
    def test_periodicity_pattern(self):
        mesh = channel_mesh(3, 2)
        assert mesh.periodic_axes == (True, True, False)
        assert not mesh.periodic
        # nodes: periodic x/y drop the seam, z keeps both walls
        assert mesh.num_nodes == 6 * 6 * 7

    def test_only_z_walls_tagged(self):
        from repro.mesh.boundary import BoundaryTag, tag_box_boundaries

        mesh = channel_mesh(3, 2)
        tags = tag_box_boundaries(mesh)
        present = BoundaryTag(int(np.bitwise_or.reduce(tags)))
        assert present & BoundaryTag.Z_MIN
        assert present & BoundaryTag.Z_MAX
        assert not present & BoundaryTag.X_MIN
        assert not present & BoundaryTag.Y_MAX

    def test_wall_node_count(self, channel_run):
        _case, mesh, sim, _result = channel_run
        # two walls of (k*p)^2 nodes each
        assert sim.operator.wall_nodes.size == 2 * 8 * 8


class TestShearDecay:
    def test_tracks_exact_solution(self, channel_run):
        case, mesh, sim, result = channel_run
        v_exact = decaying_shear_exact(mesh.coords, sim.time, case)
        v_num = result.final_state.velocity()
        rel = np.max(np.abs(v_num - v_exact)) / np.max(np.abs(v_exact))
        assert rel < 1e-3

    def test_decay_rate_matches_analytic(self, channel_run):
        case, _mesh, sim, result = channel_run
        v_num = result.final_state.velocity()
        measured = float(np.max(np.abs(v_num[0]))) / case.velocity
        exact = float(np.exp(-shear_decay_rate(case) * sim.time))
        assert measured == pytest.approx(exact, rel=1e-3)

    def test_no_slip_exact_at_walls(self, channel_run):
        _case, _mesh, sim, result = channel_run
        wall_vel = result.final_state.velocity()[:, sim.operator.wall_nodes]
        assert np.abs(wall_vel).max() < 1e-12

    def test_mass_conserved_with_walls(self, channel_run):
        _case, _mesh, _sim, result = channel_run
        assert result.mass_drift() < 1e-12

    def test_flow_stays_unidirectional(self, channel_run):
        """v stays at round-off; w only carries the tiny wall-normal
        acoustic response of the compressible gas (O(1e-6) at Ma 0.05)."""
        _case, _mesh, _sim, result = channel_run
        vel = result.final_state.velocity()
        assert np.abs(vel[1]).max() < 1e-12
        assert np.abs(vel[2]).max() < 1e-4

    def test_wall_temperature_held(self, channel_run):
        """The wall energy is pinned; temperature follows to O(drho/rho)
        (the acoustic density ripple at Ma 0.05), staying isothermal to
        ~1e-6 relative."""
        case, _mesh, sim, result = channel_run
        temps = result.final_state.temperature(case.gas())
        wall_t = temps[sim.operator.wall_nodes]
        assert np.allclose(wall_t, case.temperature0, rtol=1e-5)


class TestFastFusedBackend:
    """The wall-boundary path under backend='fast' + fusion='full' (the
    production configuration); the parity suite otherwise only exercises
    the periodic TGV case."""

    @pytest.fixture(scope="class")
    def fast_run(self):
        case = TGVCase(mach=0.05, reynolds=100.0)
        mesh = channel_mesh(3, 2)
        init = decaying_shear_initial(mesh.coords, case)
        sim = Simulation(
            mesh, case, initial_state=init, cfl=0.4, backend="fast",
            fusion="full",
        )
        result = sim.run(20)
        return case, mesh, sim, result

    def test_matches_reference_backend(self, fast_run):
        case, mesh, sim, result = fast_run
        ref_sim = Simulation(
            mesh,
            case,
            initial_state=decaying_shear_initial(mesh.coords, case),
            cfl=0.4,
            backend="reference",
        )
        ref = ref_sim.run(20).final_state.as_stacked()
        got = result.final_state.as_stacked()
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()
        assert sim.backend_name == "fast"
        assert sim.operator.fusion == "full"

    def test_decay_rate_matches_analytic(self, fast_run):
        case, _mesh, sim, result = fast_run
        v_num = result.final_state.velocity()
        measured = float(np.max(np.abs(v_num[0]))) / case.velocity
        exact = float(np.exp(-shear_decay_rate(case) * sim.time))
        assert measured == pytest.approx(exact, rel=1e-3)

    def test_walls_stay_no_slip(self, fast_run):
        _case, _mesh, sim, result = fast_run
        wall_vel = result.final_state.velocity()[:, sim.operator.wall_nodes]
        assert np.abs(wall_vel).max() < 1e-12

    def test_mass_conserved(self, fast_run):
        _case, _mesh, _sim, result = fast_run
        assert result.mass_drift() < 1e-12
