"""The backend registry: selection precedence, errors, extensibility."""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV_VAR,
    FastBackend,
    KernelBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.backend.registry import _REGISTRY
from repro.errors import ConfigurationError


class TestResolution:
    def test_builtins_registered(self):
        assert "reference" in available_backends()
        assert "fast" in available_backends()

    def test_only_serial_backends_are_registered(self):
        assert available_backends() == ("fast", "reference")

    def test_removed_parallel_backend_name_is_unknown(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("procs")
        message = str(excinfo.value)
        assert "procs" in message
        assert "fast, reference" in message

    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend_name() == "reference"
        assert isinstance(get_backend(), ReferenceBackend)

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert isinstance(get_backend("fast"), FastBackend)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
        assert resolve_backend_name() == "fast"
        assert isinstance(get_backend(), FastBackend)

    def test_name_is_case_insensitive(self):
        assert isinstance(get_backend("FAST"), FastBackend)

    def test_instance_passthrough(self):
        backend = FastBackend()
        assert get_backend(backend) is backend

    def test_fresh_instance_per_request(self):
        assert get_backend("fast") is not get_backend("fast")


class TestSimulationWiring:
    def test_default_backend_defers_to_env(self, monkeypatch):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV)
        assert sim.backend_name == "fast"

    def test_backend_argument_reaches_simulation(self, monkeypatch):
        """The explicit argument beats ``REPRO_BACKEND``."""
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV, backend="fast")
        assert sim.backend_name == "fast"
        assert isinstance(sim.operator.backend, FastBackend)

    def test_backend_instance_reaches_simulation(self):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        backend = ReferenceBackend()
        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV, backend=backend)
        assert sim.operator.backend is backend

    def test_blank_backend_argument_defers_to_env(self, monkeypatch):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV, backend="   ")
        assert sim.backend_name == "fast"

    def test_case_physics_reach_simulation(self):
        """The simulation's gas comes from the case: viscosity (via the
        Reynolds number), gamma, gas constant and Prandtl; cfl is the
        constructor's."""
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import TGVCase
        from repro.solver.simulation import Simulation

        case = TGVCase(reynolds=100.0, prandtl=0.9, gamma=1.3, gas_constant=250.0)
        sim = Simulation(periodic_box_mesh(2, 2), case, cfl=0.4)
        assert sim.gas.viscosity == pytest.approx(0.01)
        assert sim.gas.prandtl == 0.9
        assert sim.gas.gamma == 1.3
        assert sim.gas.gas_constant == 250.0
        assert sim.cfl == 0.4


class TestErrors:
    def test_unknown_backend_raises_config_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("does-not-exist")
        message = str(excinfo.value)
        assert "does-not-exist" in message
        assert "reference" in message  # lists what IS available
        assert BACKEND_ENV_VAR in message  # tells the user how to select

    def test_configuration_error_is_a_repro_error(self):
        from repro import errors

        assert issubclass(ConfigurationError, errors.ReproError)
        assert not hasattr(errors, "ConfigError")  # one name per error

    def test_unknown_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ConfigurationError):
            get_backend()

    def test_empty_name_rejected_at_registration(self):
        with pytest.raises(ConfigurationError):
            register_backend("  ", ReferenceBackend)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("reference", ReferenceBackend)

    def test_factory_must_return_kernel_backend(self, monkeypatch):
        monkeypatch.setitem(_REGISTRY, "broken", lambda: object())
        with pytest.raises(ConfigurationError):
            get_backend("broken")


class TestSerialWorkerKeyword:
    """``Simulation``, ``cosimulate_rk_stage`` and ``evaluate_point``
    keep ``num_workers`` for callers passing ``1``; every backend is
    serial, so any other count must raise instead of being dropped."""

    @staticmethod
    def _simulation(num_workers):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        return Simulation(
            periodic_box_mesh(1, 2), DEFAULT_TGV, num_workers=num_workers
        )

    @staticmethod
    def _cosim_step(num_workers):
        from repro.accel.cosim import cosimulate_rk_stage
        from repro.accel.designs import proposed_design
        from repro.mesh.hexmesh import periodic_box_mesh

        return cosimulate_rk_stage(
            proposed_design(),
            periodic_box_mesh(1, 2),
            backend="fast",
            num_workers=num_workers,
            verify=False,
        )

    @staticmethod
    def _evaluate_point(num_workers):
        from repro.dse.campaign import DesignPoint
        from repro.dse.tiers import evaluate_point

        return evaluate_point(
            DesignPoint(polynomial_order=2, elements_per_direction=2),
            "closed-form",
            num_workers=num_workers,
        )

    ENTRY_POINTS = ("_simulation", "_cosim_step", "_evaluate_point")

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_more_than_one_worker_raises(self, entry):
        with pytest.raises(ConfigurationError, match="num_workers=2"):
            getattr(self, entry)(2)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_one_worker_is_accepted(self, entry):
        assert getattr(self, entry)(1) is not None

    @pytest.mark.parametrize("num_workers", [0, -1])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_non_positive_worker_count_raises(self, entry, num_workers):
        with pytest.raises(
            ConfigurationError, match=f"num_workers={num_workers}"
        ):
            getattr(self, entry)(num_workers)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_no_worker_count_is_accepted(self, entry):
        assert getattr(self, entry)(None) is not None


class TestRemovedWorkerPlumbing:
    """Entry points that only forwarded ``num_workers`` to the removed
    parallel backends no longer take it."""

    @staticmethod
    def _get_backend():
        get_backend("fast", num_workers=2)

    @staticmethod
    def _operator():
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.navier_stokes import NavierStokesOperator

        NavierStokesOperator(
            periodic_box_mesh(1, 2), DEFAULT_TGV.gas(), num_workers=2
        )

    @staticmethod
    def _evaluate_cosim():
        from repro.dse.campaign import DesignPoint
        from repro.dse.tiers import evaluate_cosim

        evaluate_cosim(
            DesignPoint(polynomial_order=2, elements_per_direction=2),
            num_workers=2,
        )

    @staticmethod
    def _error_growth_report():
        from repro.precision.harness import error_growth_report

        error_growth_report(num_workers=2)

    @pytest.mark.parametrize(
        "entry",
        [
            "_get_backend",
            "_operator",
            "_evaluate_cosim",
            "_error_growth_report",
        ],
    )
    def test_num_workers_keyword_rejected(self, entry):
        with pytest.raises(TypeError, match="num_workers"):
            getattr(self, entry)()

    def test_parallel_backend_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.backend.parallel  # noqa: F401


class TestExtensibility:
    def test_third_party_backend_registers_and_runs(self, monkeypatch):
        """The documented path for adding a numba/jax backend later."""

        class TracingBackend(ReferenceBackend):
            name = "tracing"

            def __init__(self):
                self.calls = []

            def gather(self, global_field, connectivity):
                self.calls.append("gather")
                return super().gather(global_field, connectivity)

        monkeypatch.setitem(_REGISTRY, "tracing", TracingBackend)
        backend = get_backend("tracing")
        assert isinstance(backend, KernelBackend)
        out = backend.gather(np.arange(4.0), np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2)
        assert backend.calls == ["gather"]
