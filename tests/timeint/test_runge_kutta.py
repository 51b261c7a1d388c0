"""RK integrator: exactness, convergence order, hooks."""

import numpy as np
import pytest

from repro.errors import TimeIntegrationError
from repro.timeint.butcher import FORWARD_EULER, HEUN2, RK4, RK4_38, SSP_RK3
from repro.timeint.runge_kutta import rk_step


def decay(t, y):
    return -y


class TestExactness:
    def test_rk4_exact_for_cubic_polynomial_rhs(self):
        """RK4 integrates y' = 3t^2 (y = t^3) exactly."""
        y = rk_step(lambda t, y: np.array([3 * t**2]), 0.0, np.array([0.0]), 1.0, RK4)
        assert y[0] == pytest.approx(1.0, abs=1e-14)

    def test_euler_linear_rhs(self):
        y = rk_step(lambda t, y: np.array([2.0]), 0.0, np.array([1.0]), 0.5, FORWARD_EULER)
        assert y[0] == pytest.approx(2.0)


    @pytest.mark.parametrize(
        "tableau",
        [FORWARD_EULER, HEUN2, SSP_RK3, RK4, RK4_38],
        ids=lambda t: t.name,
    )
    def test_constant_rhs_exact(self, tableau):
        """Consistency: the weights sum to one."""
        y = rk_step(lambda t, y: np.array([2.0]), 0.0, np.array([1.0]), 0.5, tableau)
        assert y[0] == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize(
        "tableau", [HEUN2, SSP_RK3, RK4, RK4_38], ids=lambda t: t.name
    )
    def test_stage_times_reach_the_rhs(self, tableau):
        """Second-order tableaus integrate y' = t (y = t^2 / 2) exactly,
        which needs each stage's time ``t + c_i dt``."""
        y = rk_step(lambda t, y: np.array([t]), 1.0, np.array([0.5]), 1.0, tableau)
        assert y[0] == pytest.approx(2.0, abs=1e-14)


class TestConvergenceOrder:
    @pytest.mark.parametrize(
        "tableau,expected_order",
        [
            (FORWARD_EULER, 1),
            (HEUN2, 2),
            (SSP_RK3, 3),
            (RK4, 4),
            (RK4_38, 4),
        ],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_observed_order_on_decay(self, tableau, expected_order):
        exact = np.exp(-1.0)
        errors = []
        for steps in (8, 16):
            dt = 1.0 / steps
            y = np.array([1.0])
            for step in range(steps):
                y = rk_step(decay, step * dt, y, dt, tableau)
            errors.append(abs(y[0] - exact))
        observed = np.log2(errors[0] / errors[1])
        assert observed == pytest.approx(expected_order, abs=0.35)


class TestMechanics:
    def test_invalid_dt(self):
        with pytest.raises(TimeIntegrationError):
            rk_step(decay, 0.0, np.array([1.0]), 0.0, RK4)

    def test_input_not_mutated(self):
        y0 = np.array([1.0, 2.0])
        rk_step(decay, 0.0, y0, 0.1, RK4)
        assert np.array_equal(y0, [1.0, 2.0])

    def test_vector_state(self):
        y0 = np.array([1.0, 2.0, 3.0])
        y1 = rk_step(decay, 0.0, y0, 0.01, RK4)
        assert np.allclose(y1, y0 * np.exp(-0.01), atol=1e-10)


class TestBufferedAccumulationParity:
    """The in-place stage-increment accumulation (reused increment /
    scratch buffers instead of O(stages^2) temporaries) must reproduce
    the naive formulation exactly — same floating-point evaluation
    order, bit-for-bit equal results."""

    @staticmethod
    def _naive_rk_step(rhs, t, y, dt, tableau):
        """The pre-refactor allocation-per-term reference."""
        y = np.asarray(y, dtype=np.float64)
        stage_derivs = []
        for stage in range(tableau.num_stages):
            y_stage = y
            if stage > 0:
                increment = np.zeros_like(y)
                for prev in range(stage):
                    coeff = tableau.a[stage, prev]
                    if coeff != 0.0:
                        increment = increment + coeff * stage_derivs[prev]
                y_stage = y + dt * increment
            stage_derivs.append(
                np.asarray(
                    rhs(t + tableau.c[stage] * dt, y_stage), dtype=np.float64
                )
            )
        result = y.copy()
        for stage in range(tableau.num_stages):
            weight = tableau.b[stage]
            if weight != 0.0:
                result = result + dt * weight * stage_derivs[stage]
        return result

    @pytest.mark.parametrize(
        "tableau",
        [FORWARD_EULER, HEUN2, SSP_RK3, RK4, RK4_38],
        ids=lambda t: t.name,
    )
    def test_bitwise_parity_with_naive_reference(self, tableau):
        rng = np.random.default_rng(20260730)
        y0 = rng.normal(size=(5, 17))

        def rhs(t, y):
            return np.sin(y) - 0.37 * y + t

        got = rk_step(rhs, 0.2, y0, 0.013, tableau)
        want = self._naive_rk_step(rhs, 0.2, y0, 0.013, tableau)
        assert np.array_equal(got, want)
