"""Property-based tests on the physics layer (hypothesis)."""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import get_backend
from repro.fem.geometry import compute_geometry
from repro.fem.reference import reference_hex
from repro.mesh.hexmesh import channel_mesh, periodic_box_mesh
from repro.physics.channel import decaying_shear_initial
from repro.physics.fluxes import (
    combined_rhs_fluxes,
    convective_fluxes,
    viscous_fluxes,
)
from repro.physics.gas import GasProperties
from repro.physics.state import FlowState
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from repro.physics.viscous import stress_tensor
from repro.pipeline.kernels import PipelineContext, pipeline_kernel
from repro.pipeline.ir import Stage

finite = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)
positive = st.floats(
    min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def primitive_state(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    rho = draw(
        arrays(np.float64, (n,), elements=positive)
    )
    vel = draw(arrays(np.float64, (3, n), elements=finite))
    temp = draw(arrays(np.float64, (n,), elements=st.floats(100.0, 600.0)))
    return rho, vel, temp


class TestStateProperties:
    @given(data=primitive_state())
    @settings(max_examples=60, deadline=None)
    def test_primitive_roundtrip(self, data):
        rho, vel, temp = data
        gas = GasProperties()
        state = FlowState.from_primitive(rho, vel, temp, gas)
        assert np.allclose(state.velocity(), vel, atol=1e-10)
        assert np.allclose(state.temperature(gas), temp, rtol=1e-10)
        state.validate()

    @given(data=primitive_state())
    @settings(max_examples=60, deadline=None)
    def test_stacking_roundtrip(self, data):
        rho, vel, temp = data
        state = FlowState.from_primitive(rho, vel, temp, GasProperties())
        back = FlowState.from_stacked(state.as_stacked())
        assert np.allclose(back.rho, state.rho)
        assert np.allclose(back.total_energy, state.total_energy)

    @given(data=primitive_state())
    @settings(max_examples=60, deadline=None)
    def test_pressure_positive_for_physical_states(self, data):
        rho, vel, temp = data
        gas = GasProperties()
        state = FlowState.from_primitive(rho, vel, temp, gas)
        assert (state.pressure(gas) > 0).all()


class TestTensorProperties:
    @given(
        grad=arrays(np.float64, (4, 3, 3), elements=finite),
        mu=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_stress_symmetric_and_traceless(self, grad, mu):
        tau = stress_tensor(grad, mu)
        assert np.allclose(tau, np.swapaxes(tau, -1, -2), atol=1e-10)
        assert np.allclose(
            np.trace(tau, axis1=-2, axis2=-1), 0.0, atol=1e-9
        )

    @given(
        grad=arrays(np.float64, (4, 3, 3), elements=finite),
        mu=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_stress_dissipation_nonnegative(self, grad, mu):
        """tau : grad u = 2 mu |dev(sym grad u)|^2 >= 0."""
        tau = stress_tensor(grad, mu)
        assert (np.einsum("...ij,...ij->...", tau, grad) >= -1e-9).all()


class TestFluxProperties:
    @given(data=primitive_state())
    @settings(max_examples=60, deadline=None)
    def test_galilean_momentum_flux_symmetry(self, data):
        rho, vel, temp = data
        gas = GasProperties()
        state = FlowState.from_primitive(rho, vel, temp, gas)
        fluxes = convective_fluxes(
            state.rho, state.velocity(), state.pressure(gas), state.total_energy
        )
        assert np.allclose(
            fluxes.momentum, np.swapaxes(fluxes.momentum, -1, -2), atol=1e-9
        )

    @given(data=primitive_state())
    @settings(max_examples=40, deadline=None)
    def test_mass_flux_is_momentum(self, data):
        rho, vel, temp = data
        gas = GasProperties()
        state = FlowState.from_primitive(rho, vel, temp, gas)
        fluxes = convective_fluxes(
            state.rho, state.velocity(), state.pressure(gas), state.total_energy
        )
        assert np.allclose(
            fluxes.mass, np.moveaxis(state.momentum, 0, -1), atol=1e-9
        )


#: Max-norm error of the single-pass net flux relative to the reference
#: formulae, per storage dtype (``mixed`` streams float32).
NET_FLUX_TOL = {np.dtype(np.float64): 1e-13, np.dtype(np.float32): 1e-6}
#: 3^3 elements at p=2: room for 1-, 17- and whole-mesh blocks.
NET_FLUX_ELEMENTS = 27
NET_FLUX_STAGE = Stage(
    "flux",
    role="compute",
    kernel="combined_flux",
    inputs=("state_elem",),
    outputs=("flux",),
)


@cache
def net_flux_mesh(case: str, geometry: str):
    """``(mesh, reference element, element geometry)`` of one case."""
    mesh = (periodic_box_mesh if case == "tgv" else channel_mesh)(3, 2)
    ref = reference_hex(2)
    corners = mesh.corner_coords.copy()
    if geometry == "curved":
        x, y, z = (mesh.corner_coords[..., i] for i in range(3))
        corners[..., 0] += 0.05 * np.sin(y * z / 4.0 + 0.3)
        corners[..., 1] += 0.05 * np.sin(z * x / 4.0 + 0.7)
        corners[..., 2] += 0.05 * np.sin(x * y / 4.0 + 1.1)
    geom = compute_geometry(corners, ref)
    assert geom.is_affine == (geometry == "affine")
    return mesh, ref, geom


@st.composite
def smooth_flow(draw):
    """A smooth TGV or channel state on the 3^3 mesh, as ``(5, N)``.

    The case's velocity amplitude is drawn, and every conserved field
    carries a small ripple ``1 + eps sin(k . x + phi)`` with integer
    wavenumbers, keeping density and pressure positive.
    """
    case = draw(st.sampled_from(("tgv", "channel")))
    geometry = draw(st.sampled_from(("affine", "curved")))
    mesh, _ref, _geom = net_flux_mesh(case, geometry)
    flow = replace(
        DEFAULT_TGV,
        velocity=draw(st.floats(0.5, 1.5)) * DEFAULT_TGV.velocity,
    )
    if case == "tgv":
        state = taylor_green_initial(mesh.coords, flow).as_stacked()
    else:
        state = decaying_shear_initial(mesh.coords, flow).as_stacked()
    waves = draw(arrays(np.int64, (5, 3), elements=st.integers(-2, 2)))
    phases = draw(arrays(np.float64, (5,), elements=st.floats(0.0, 6.28)))
    eps = draw(st.floats(0.0, 0.05))
    state = state * (1.0 + eps * np.sin(waves @ mesh.coords.T + phases[:, None]))
    return case, geometry, state


def reference_net_flux(ctx: PipelineContext, state_elem: np.ndarray):
    """``F_c - F_v`` through the reference formulae, stacked."""
    gas = ctx.gas
    rho, momentum, total_energy = state_elem[0], state_elem[1:4], state_elem[4]
    velocity = momentum / rho
    internal = total_energy - 0.5 * np.sum(momentum * velocity, axis=0)
    pressure = (gas.gamma - 1.0) * internal
    temperature = internal / (rho * gas.cv)
    grads = ctx.backend.physical_gradient_many(
        np.concatenate([velocity, temperature[None]]), ctx.geom, ctx.ref
    )
    grad_u = np.moveaxis(grads[:3], 0, 2)
    return combined_rhs_fluxes(
        convective_fluxes(rho, velocity, pressure, total_energy),
        viscous_fluxes(velocity, grad_u, grads[3], gas),
    ).stacked()


class TestSinglePassNetFlux:
    @given(
        flow=smooth_flow(),
        mode=st.sampled_from(("float64", "float32", "mixed")),
        block=st.sampled_from((1, 17, NET_FLUX_ELEMENTS)),
        order=st.permutations(range(NET_FLUX_ELEMENTS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_formulae(self, flow, mode, block, order):
        """The ``combined_flux`` kernel equals the reference formulae fed
        the same gradients, on element blocks of every size."""
        case, geometry, state = flow
        mesh, ref, geom = net_flux_mesh(case, geometry)
        backend = get_backend("fast", precision=mode)
        dtype = backend.precision.storage
        ctx = PipelineContext(
            connectivity=mesh.connectivity,
            num_nodes=mesh.num_nodes,
            geom=geom,
            ref=ref,
            gas=DEFAULT_TGV.gas(),
            backend=backend,
        ).element_block(np.array(order[:block]))
        state_elem = backend.gather(state.astype(dtype), ctx.connectivity)
        got = pipeline_kernel("combined_flux")(ctx, NET_FLUX_STAGE, state_elem)[0]
        expected = reference_net_flux(ctx, state_elem)
        assert got.dtype == dtype and got.shape == expected.shape
        err = np.abs(got - expected).max() / np.abs(expected).max()
        assert err <= NET_FLUX_TOL[dtype], (case, geometry, mode, block)
