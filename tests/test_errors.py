"""Exception hierarchy contract."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.MeshError,
            errors.FEMError,
            errors.PhysicsError,
            errors.TimeIntegrationError,
            errors.SolverError,
            errors.DataflowError,
            errors.DataflowValidationError,
            errors.DeadlockError,
            errors.HLSError,
            errors.DirectiveError,
            errors.FPGAError,
            errors.FloorplanError,
            errors.CalibrationError,
            errors.ExperimentError,
        ],
    )
    def test_all_derive_from_base(self, exc):
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)

    def test_subsystem_specializations(self):
        assert issubclass(errors.DataflowValidationError, errors.DataflowError)
        assert issubclass(errors.DeadlockError, errors.DataflowError)
        assert issubclass(errors.DirectiveError, errors.HLSError)
        assert issubclass(errors.FloorplanError, errors.FPGAError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.MeshError("boom")

    def test_top_level_reexport(self):
        import repro

        assert repro.ReproError is errors.ReproError
