"""Shared configuration and unit helpers."""

import pytest

from repro.config import (
    FP32,
    FP64,
    MeshSpec,
    PAPER_FIG5_NODE_COUNTS,
    Precision,
    RunConfig,
    SolverConfig,
    seconds_from_cycles,
)
from repro.errors import ConfigurationError


class TestUnits:
    def test_seconds_from_cycles(self):
        assert seconds_from_cycles(1_000_000, 100e6) == pytest.approx(0.01)

    def test_invalid_frequency(self):
        with pytest.raises(ConfigurationError):
            seconds_from_cycles(10, 0)


class TestPrecision:
    def test_widths(self):
        assert FP32.bytes_per_value == 4
        assert FP64.bytes_per_value == 8

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            Precision(name="odd", bytes_per_value=3)


class TestSolverConfig:
    def test_derived_node_counts(self):
        cfg = SolverConfig(polynomial_order=2)
        assert cfg.nodes_per_direction == 3
        assert cfg.nodes_per_element == 27

    def test_thermal_conductivity_coefficient(self):
        cfg = SolverConfig(viscosity=0.71, prandtl=0.71)
        assert cfg.thermal_conductivity_coefficient == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"polynomial_order": 0},
            {"cfl": 0.0},
            {"cfl": 3.0},
            {"viscosity": -1.0},
            {"gamma": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)


class TestMeshSpec:
    def test_node_count_formula(self):
        spec = MeshSpec(elements_per_direction=4, polynomial_order=2)
        assert spec.num_elements == 64
        assert spec.num_nodes == 512

    def test_with_at_least_nodes(self):
        spec = MeshSpec.with_at_least_nodes(5_000)
        assert spec.num_nodes >= 5_000
        smaller = MeshSpec(spec.elements_per_direction - 1)
        assert smaller.num_nodes < 5_000

    def test_paper_node_counts_constant(self):
        assert PAPER_FIG5_NODE_COUNTS[0] == 5_000
        assert PAPER_FIG5_NODE_COUNTS[-1] == 4_200_000
        assert len(PAPER_FIG5_NODE_COUNTS) == 6


class TestRunConfig:
    def test_order_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig(
                mesh=MeshSpec(2, polynomial_order=3),
                solver=SolverConfig(polynomial_order=2),
            )

    def test_valid(self):
        cfg = RunConfig(mesh=MeshSpec(2), num_time_steps=5)
        assert cfg.num_time_steps == 5
