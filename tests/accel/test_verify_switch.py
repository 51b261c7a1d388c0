"""The ``verify=`` switch: skipping the checking solve changes nothing.

``verify=False`` removes the redundant functional reference run from
the co-simulation — the streamed payloads are untouched, so the final
state, the primitives and every cycle count must be *bitwise* what the
verified run produces, across backends, precision modes, engines and
multi-step chains. Only the error-report fields become ``None``.
"""

import numpy as np
import pytest

from repro.accel.cosim import cosimulate_rk_stage
from repro.mesh.hexmesh import periodic_box_mesh


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

