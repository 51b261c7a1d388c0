"""Butcher tableau validity."""

import numpy as np
import pytest

from repro.errors import TimeIntegrationError
from repro.timeint.butcher import (
    FORWARD_EULER,
    HEUN2,
    RK4,
    RK4_38,
    SSP_RK3,
    ButcherTableau,
)

ALL = [FORWARD_EULER, HEUN2, SSP_RK3, RK4, RK4_38]


class TestRegistered:
    @pytest.mark.parametrize("tab", ALL, ids=lambda t: t.name)
    def test_consistency(self, tab):
        assert tab.b.sum() == pytest.approx(1.0)
        assert np.allclose(tab.a.sum(axis=1), tab.c)
        assert np.all(np.triu(tab.a) == 0.0)

    def test_rk4_stage_count_and_weights(self):
        assert RK4.num_stages == 4
        assert np.allclose(RK4.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])

    def test_order_conditions_second(self):
        """sum b_i c_i = 1/2 for order >= 2."""
        for tab in ALL:
            if tab.order >= 2:
                assert np.dot(tab.b, tab.c) == pytest.approx(0.5)

    def test_order_conditions_third(self):
        """sum b_i c_i^2 = 1/3 for order >= 3."""
        for tab in ALL:
            if tab.order >= 3:
                assert np.dot(tab.b, tab.c**2) == pytest.approx(1 / 3)

    def test_order_conditions_fourth(self):
        """sum b_i c_i^3 = 1/4 for order >= 4."""
        for tab in (RK4, RK4_38):
            assert np.dot(tab.b, tab.c**3) == pytest.approx(0.25)


class TestValidation:
    def test_nonzero_upper_triangle_rejected(self):
        with pytest.raises(TimeIntegrationError):
            ButcherTableau(
                name="bad",
                a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                b=np.array([0.5, 0.5]),
                c=np.array([0.0, 0.0]),
            )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(TimeIntegrationError):
            ButcherTableau(
                name="bad",
                a=np.zeros((2, 2)),
                b=np.array([0.3, 0.3]),
                c=np.zeros(2),
            )

    def test_c_must_match_row_sums(self):
        with pytest.raises(TimeIntegrationError):
            ButcherTableau(
                name="bad",
                a=np.array([[0.0, 0.0], [0.5, 0.0]]),
                b=np.array([0.5, 0.5]),
                c=np.array([0.0, 0.9]),
            )
