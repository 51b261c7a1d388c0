"""Unit tests of the precision-mode machinery (``repro.precision``).

The resolution chain (argument > ``REPRO_DTYPE`` > float64), the
policy table, mixed-mode scatter semantics, and the backend-registry /
simulation plumbing.
"""

import argparse

import numpy as np
import pytest

from repro.backend import get_backend
from repro.errors import ConfigurationError
from repro.fem.assembly import scatter_add
from repro.precision import (
    DEFAULT_DTYPE,
    DTYPE_ENV_VAR,
    DTYPE_MODES,
    FLOAT64_POLICY,
    PrecisionPolicy,
    add_dtype_argument,
    resolve_dtype,
)


class TestResolveDtype:
    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv(DTYPE_ENV_VAR, raising=False)
        assert resolve_dtype() == DEFAULT_DTYPE == "float64"

    @pytest.mark.parametrize(
        "alias, mode",
        [
            ("float64", "float64"),
            ("f64", "float64"),
            ("fp64", "float64"),
            ("double", "float64"),
            ("float32", "float32"),
            ("f32", "float32"),
            ("fp32", "float32"),
            ("single", "float32"),
            ("mixed", "mixed"),
            ("  F32  ", "float32"),
        ],
    )
    def test_aliases_canonicalize(self, alias, mode):
        assert resolve_dtype(alias) == mode

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV_VAR, "f32")
        assert resolve_dtype() == "float32"
        # An explicit argument still wins over the environment.
        assert resolve_dtype("mixed") == "mixed"

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigurationError, match="unknown precision"):
            resolve_dtype("float16")


class TestPrecisionPolicy:
    @pytest.mark.parametrize(
        "mode, storage, accumulate",
        [
            ("float64", np.float64, np.float64),
            ("float32", np.float32, np.float32),
            ("mixed", np.float32, np.float64),
        ],
    )
    def test_mode_table(self, mode, storage, accumulate):
        policy = PrecisionPolicy.for_mode(mode)
        assert policy.mode == mode
        assert policy.storage == np.dtype(storage)
        assert policy.accumulate == np.dtype(accumulate)

    def test_modes_tuple_is_the_table(self):
        assert DTYPE_MODES == ("float64", "float32", "mixed")

    def test_resolve_passes_policies_through(self):
        policy = PrecisionPolicy.for_mode("mixed")
        assert PrecisionPolicy.resolve(policy) is policy
        assert PrecisionPolicy.resolve(None) == FLOAT64_POLICY

    @pytest.mark.parametrize("mode", DTYPE_MODES)
    def test_float64_values_always_accumulate_wide(self, mode):
        """Narrowing an oracle-precision reduction is never allowed: f64
        inputs accumulate in f64 under every policy."""
        policy = PrecisionPolicy.for_mode(mode)
        assert policy.accumulate_for(np.float64) == np.dtype(np.float64)

    def test_float32_values_consult_the_policy(self):
        assert PrecisionPolicy.for_mode("float32").accumulate_for(
            np.float32
        ) == np.dtype(np.float32)
        assert PrecisionPolicy.for_mode("mixed").accumulate_for(
            np.float32
        ) == np.dtype(np.float64)


class TestScatterAccumulateSemantics:
    """The one kernel the policy moves: scatter-add accumulation."""

    def test_wide_vs_narrow_accumulation_differ_observably(self):
        # Four contributions to one node: 1.0 then three half-ulps. A
        # float32 running sum drops every half-ulp; a float64 sum keeps
        # them and the single final rounding rounds up.
        conn = np.zeros((1, 4), dtype=np.int64)
        values = np.array([[1.0, 2**-24, 2**-24, 2**-24]], dtype=np.float32)
        wide = scatter_add(values, conn, 1, accumulate_dtype=np.float64)
        narrow = scatter_add(values, conn, 1, accumulate_dtype=np.float32)
        assert wide.dtype == narrow.dtype == np.float32
        assert wide[0] == np.float32(1.0 + 3 * np.float64(2**-24))
        assert narrow[0] == np.float32(1.0)

    @pytest.mark.parametrize("name", ("reference", "fast"))
    def test_backend_policy_selects_the_accumulator(self, name):
        conn = np.zeros((1, 4), dtype=np.int64)
        values = np.array([[1.0, 2**-24, 2**-24, 2**-24]], dtype=np.float32)
        device = get_backend(name, precision=PrecisionPolicy.for_mode("float32"))
        mixed = get_backend(name, precision=PrecisionPolicy.for_mode("mixed"))
        assert device.scatter_add(values, conn, 1)[0] == np.float32(1.0)
        assert mixed.scatter_add(values, conn, 1)[0] > np.float32(1.0)


class TestConfigAndRegistryPlumbing:
    def test_get_backend_forwards_precision(self):
        policy = PrecisionPolicy.for_mode("float32")
        for name in ("reference", "fast"):
            backend = get_backend(name, precision=policy)
            assert backend.precision.mode == "float32"
        assert get_backend("fast").precision.mode == "float64"

    def test_simulation_dtype_argument(self):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV, dtype="float32")
        assert sim.precision.mode == "float32"
        sim.run(1)
        assert sim.state.as_stacked().dtype == np.float64  # FlowState stays f64

    def test_simulation_rejects_unknown_dtype(self):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        with pytest.raises(ConfigurationError, match="quad"):
            Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV, dtype="quad")

    def test_simulation_dtype_defers_to_env(self, monkeypatch):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        monkeypatch.setenv(DTYPE_ENV_VAR, "float32")
        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV)
        assert sim.precision.mode == "float32"

    def test_simulation_dtype_argument_beats_env(self, monkeypatch):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        monkeypatch.setenv(DTYPE_ENV_VAR, "float32")
        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV, dtype="mixed")
        assert sim.precision.mode == "mixed"

    def test_simulation_adopts_backend_instance_policy(self):
        from repro.mesh.hexmesh import periodic_box_mesh
        from repro.physics.taylor_green import DEFAULT_TGV
        from repro.solver.simulation import Simulation

        backend = get_backend("fast", precision=PrecisionPolicy.for_mode("mixed"))
        sim = Simulation(periodic_box_mesh(2, 2), DEFAULT_TGV, backend=backend)
        assert sim.precision.mode == "mixed"
        assert sim.operator.backend is backend


class TestDtypeArgument:
    def test_add_dtype_argument_round_trip(self):
        parser = argparse.ArgumentParser()
        add_dtype_argument(parser)
        assert parser.parse_args([]).dtype is None
        args = parser.parse_args(["--dtype", "f32"])
        assert resolve_dtype(args.dtype) == "float32"


class TestDesignPointPrecisionAxis:
    def test_precision_field_canonicalizes_and_validates(self):
        from repro.dse.campaign import DesignPoint
        from repro.errors import DSEError

        assert DesignPoint().precision == "float64"
        assert DesignPoint(precision="f32").precision == "float32"
        assert "precision" in DesignPoint().spec()
        with pytest.raises(DSEError):
            DesignPoint(precision="float16")

    def test_precision_is_a_sweepable_axis(self):
        from repro.dse import CampaignSpec

        spec = CampaignSpec(
            name="precision-sweep",
            axes=(("precision", ("float64", "float32", "mixed")),),
        )
        points, skipped = spec.expand()
        assert [p.precision for p in points] == list(DTYPE_MODES)
        assert not skipped

    def test_cosim_tier_runs_under_the_point_precision(self):
        from repro.dse.campaign import DesignPoint
        from repro.dse.tiers import evaluate_point

        point = DesignPoint(
            polynomial_order=2,
            elements_per_direction=2,
            block_size=4,
            precision="float32",
        )
        result = evaluate_point(point, "cosim")
        oracle = evaluate_point(
            point.__class__(**{**point.spec(), "precision": "float64"}),
            "cosim",
        )
        # Timing tiers are precision-invariant; only the recorded state
        # error moves (f32 rounding floor vs f64 rounding floor).
        assert result.step_cycles == oracle.step_cycles
        assert result.state_max_rel_err < 1e-6
        assert oracle.state_max_rel_err < 1e-12
        assert result.state_max_rel_err > oracle.state_max_rel_err
