"""The time-stepping driver."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.physics.taylor_green import DEFAULT_TGV, TGVCase
from repro.solver.simulation import Simulation


@pytest.fixture(scope="module")
def short_run(request):
    from repro.mesh.hexmesh import periodic_box_mesh

    mesh = periodic_box_mesh(3, 2)
    sim = Simulation(mesh, DEFAULT_TGV)
    result = sim.run(6)
    return sim, result


class TestRun:
    def test_records_every_step(self, short_run):
        _sim, result = short_run
        assert result.num_steps == 6
        assert [r.step for r in result.records] == list(range(1, 7))

    def test_time_advances_monotonically(self, short_run):
        _sim, result = short_run
        times = [r.time for r in result.records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_mass_exactly_conserved(self, short_run):
        _sim, result = short_run
        assert result.mass_drift() < 1e-13

    def test_state_remains_physical(self, short_run):
        _sim, result = short_run
        result.final_state.validate()

    def test_kinetic_energy_stays_bounded(self, short_run):
        _sim, result = short_run
        series = result.kinetic_energy_series()
        assert series[:, 1].max() < 0.25  # TGV starts at 0.125
        assert series[:, 1].min() > 0.05

    def test_profiler_sees_all_categories(self, short_run):
        sim, _result = short_run
        totals = sim.profiler.totals()
        for phase in ("rk.diffusion", "rk.convection", "rk.update", "non_rk"):
            assert totals.get(phase, 0.0) > 0.0

    def test_invalid_steps_rejected(self):
        from repro.mesh.hexmesh import periodic_box_mesh

        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV)
        with pytest.raises(SolverError):
            sim.run(0)

    def test_fixed_dt_respected(self):
        from repro.mesh.hexmesh import periodic_box_mesh

        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV)
        result = sim.run(2, dt=1e-4)
        assert all(r.dt == pytest.approx(1e-4) for r in result.records)
        assert sim.time == pytest.approx(2e-4)

    def test_cfl_dt_is_stable_scale(self):
        from repro.mesh.hexmesh import periodic_box_mesh

        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV)
        dt = sim.compute_dt()
        # dx_min ~ pi/2, wave ~ 11 -> dt ~ 0.5 * 1.57 / 11 ~ 0.07
        assert 1e-3 < dt < 0.2

    def test_validate_every(self):
        from repro.mesh.hexmesh import periodic_box_mesh

        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV)
        result = sim.run(2, validate_every=1)
        assert result.num_steps == 2


class TestSchemes:
    def test_heun_also_stable_short_run(self):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.timeint.butcher import HEUN2

        sim = Simulation(
            periodic_box_mesh(2, 2), DEFAULT_TGV, tableau=HEUN2, cfl=0.25
        )
        result = sim.run(4)
        result.final_state.validate()

    def test_fused_operator_matches_default(self):
        from repro.mesh.hexmesh import periodic_box_mesh

        mesh = periodic_box_mesh(2, 2)
        a = Simulation(mesh, DEFAULT_TGV).run(3, dt=1e-4)
        b = Simulation(mesh, DEFAULT_TGV, fusion="gather").run(3, dt=1e-4)
        assert np.allclose(
            a.final_state.as_stacked(), b.final_state.as_stacked()
        )
