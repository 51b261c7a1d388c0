"""The ``verify=`` switch: skipping the checking solve changes nothing.

``verify=False`` removes the redundant functional reference run from
the co-simulation — the streamed payloads are untouched, so the final
state, the primitives and every cycle count must be *bitwise* what the
verified run produces, across backends, precision modes, engines and
multi-step chains. Only the error-report fields become ``None``.
"""

import numpy as np
import pytest

import repro.accel.cosim as cosim_module
import repro.solver.navier_stokes as ns_module
import repro.solver.simulation as sim_module
from repro.accel.cosim import cosimulate_rk_stage
from repro.accel.designs import proposed_design
from repro.mesh.hexmesh import channel_mesh, periodic_box_mesh
from repro.physics.channel import decaying_shear_initial
from repro.physics.taylor_green import DEFAULT_TGV, TGVCase
from repro.solver.simulation import Simulation


def _pair(proposed, mesh, **kwargs):
    """The same co-simulated step with and without verification."""
    checked = cosimulate_rk_stage(proposed, mesh, verify=True, **kwargs)
    fast = cosimulate_rk_stage(proposed, mesh, verify=False, **kwargs)
    return checked, fast


def _assert_identical(checked, fast):
    assert np.array_equal(
        fast.final_state.as_stacked(), checked.final_state.as_stacked()
    )
    assert np.array_equal(fast.primitives, checked.primitives)
    assert fast.simulated_cycles == checked.simulated_cycles
    assert fast.per_stage_rkl_cycles == checked.per_stage_rkl_cycles
    assert fast.rku_simulated_cycles == checked.rku_simulated_cycles
    assert fast.dt == checked.dt
    assert fast.state_max_rel_err is None
    assert checked.state_max_rel_err is not None


class TestRKStepVerifySwitch:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_bitwise_identical_across_backends(self, proposed, backend):
        mesh = periodic_box_mesh(2, 2)
        checked, fast = _pair(
            proposed, mesh, backend=backend, block_size=4
        )
        _assert_identical(checked, fast)

    @pytest.mark.parametrize("dtype", ["float64", "float32", "mixed"])
    @pytest.mark.parametrize("engine", ["event", "vectorized"])
    def test_bitwise_identical_across_precisions_and_engines(
        self, proposed, dtype, engine
    ):
        mesh = periodic_box_mesh(2, 2)
        checked, fast = _pair(
            proposed, mesh, dtype=dtype, engine=engine, block_size=2
        )
        _assert_identical(checked, fast)

    def test_bitwise_identical_multi_step_multi_cu(self, proposed):
        mesh = periodic_box_mesh(2, 3)
        checked, fast = _pair(
            proposed, mesh, num_steps=3, num_cus=2, block_size=4
        )
        _assert_identical(checked, fast)
        assert checked.state_max_rel_err <= 1e-12

    def test_verified_error_still_tiny(self, proposed):
        """The checked path stays the audit: its recorded error is at
        rounding level, proving the shared streamed result is real."""
        mesh = periodic_box_mesh(2, 3)
        checked = cosimulate_rk_stage(proposed, mesh, verify=True)
        assert checked.state_max_rel_err <= 1e-12


class TestFastPath:
    """What ``verify=False`` builds: the operator and the streamed
    chains, nothing that the mesh or the design already holds."""

    def test_builds_no_simulation(self, proposed, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("verify=False constructed a Simulation")

        monkeypatch.setattr(Simulation, "__init__", refuse)
        mesh = periodic_box_mesh(2, 2)
        result = cosimulate_rk_stage(proposed, mesh, verify=False)
        assert result.state_max_rel_err is None
        with pytest.raises(AssertionError, match="constructed a Simulation"):
            cosimulate_rk_stage(proposed, mesh, verify=True)

    @pytest.mark.parametrize("dtype", ["float64", "float32", "mixed"])
    @pytest.mark.parametrize("flow", ["tgv", "channel"])
    def test_dt_is_the_simulation_cfl_step(self, proposed, flow, dtype):
        build = periodic_box_mesh if flow == "tgv" else channel_mesh
        mesh, case, initial = build(2, 2), DEFAULT_TGV, None
        if flow == "channel":
            case = TGVCase(mach=0.05, reynolds=100.0)
            initial = decaying_shear_initial(mesh.coords, case)
        result = cosimulate_rk_stage(
            proposed, mesh, case=case, initial_state=initial, dtype=dtype,
            verify=False,
        )
        # A fresh mesh, so the step does not lean on the cosim's memo.
        sim = Simulation(build(2, 2), case, initial_state=initial, dtype=dtype)
        assert result.dt == sim.compute_dt()

    def test_second_call_reuses_mesh_and_design_data(self, monkeypatch):
        """Spacing, geometry, mass and the RKU lowerings are built on the
        first call on a mesh and design, and never again."""
        calls = dict.fromkeys(("spacing", "geometry", "mass", "rku"), 0)

        def counted(key, function):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            sim_module, "element_min_spacing",
            counted("spacing", sim_module.element_min_spacing),
        )
        monkeypatch.setattr(
            ns_module, "compute_geometry",
            counted("geometry", ns_module.compute_geometry),
        )
        monkeypatch.setattr(
            ns_module, "lumped_mass", counted("mass", ns_module.lumped_mass)
        )
        monkeypatch.setattr(
            cosim_module._RKUChain, "__init__",
            counted("rku", cosim_module._RKUChain.__init__),
        )
        design, mesh = proposed_design(), periodic_box_mesh(2, 3)
        kwargs = dict(
            backend="fast", dtype="float32", num_cus=2, block_size=4,
            verify=False,
        )
        first = cosimulate_rk_stage(design, mesh, **kwargs)
        assert calls == {"spacing": 1, "geometry": 1, "mass": 1, "rku": 2}
        calls.update(dict.fromkeys(calls, 0))
        second = cosimulate_rk_stage(design, mesh, **kwargs)
        assert calls == dict.fromkeys(calls, 0)
        assert second.dt == first.dt
        assert np.array_equal(
            second.final_state.as_stacked(), first.final_state.as_stacked()
        )
        assert np.array_equal(second.primitives, first.primitives)
        assert second.simulated_cycles == first.simulated_cycles
