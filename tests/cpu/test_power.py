"""CPU power model."""

import pytest

from repro.cpu.power import XEON_PACKAGE_POWER_W


class TestModel:
    def test_paper_measured_constant(self):
        assert XEON_PACKAGE_POWER_W == pytest.approx(120.42)
