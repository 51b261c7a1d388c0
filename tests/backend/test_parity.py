"""Backend parity: every registered backend must match ``"reference"``.

Property-style sweep over polynomial orders p in {2, 3, 4, 5, 7} (both
sides of the ``fast`` backend's eta-contraction cutoff), affine
and non-affine geometries, every hot kernel, a full TGV RHS evaluation,
and a wall-bounded channel-flow RHS. The sweep covers **all registered
backends** — ``"fast"`` at 1e-10 relative, with bitwise run-to-run
determinism.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import available_backends, get_backend
from repro.fem.geometry import compute_geometry
from repro.fem.reference import reference_hex
from repro.mesh.hexmesh import channel_mesh, periodic_box_mesh
from repro.pipeline import PipelineContext
from repro.pipeline.kernels import single_pass_net_flux
from repro.physics.channel import decaying_shear_initial
from repro.physics.taylor_green import DEFAULT_TGV, TGVCase, taylor_green_initial
from repro.solver.navier_stokes import NavierStokesOperator

ORDERS = (2, 3, 4, 5, 7)
RTOL = 1e-10
#: Every backend checked against the oracle.
CANDIDATE_BACKENDS = tuple(
    name for name in available_backends() if name != "reference"
)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.abs(a).max()
    if scale == 0.0:
        return float(np.abs(b).max())
    return float(np.abs(a - b).max() / scale)


def test_all_builtin_backends_are_registered():
    for name in ("reference", "fast"):
        assert name in available_backends()


@pytest.fixture(scope="module", params=ORDERS)
def setup(request):
    """Mesh, reference element, affine + curved geometry, rng."""
    p = request.param
    mesh = periodic_box_mesh(2, p)
    ref = reference_hex(p)
    affine = compute_geometry(mesh.corner_coords, ref)
    # Curved elements: a cross-coordinate (non-separable) perturbation so
    # no element stays a parallelepiped, exercising the per-node-Jacobian
    # branches.
    corners = mesh.corner_coords.copy()
    x, y, z = (mesh.corner_coords[..., i] for i in range(3))
    corners[..., 0] += 0.05 * np.sin(y * z / 4.0 + 0.3)
    corners[..., 1] += 0.05 * np.sin(z * x / 4.0 + 0.7)
    corners[..., 2] += 0.05 * np.sin(x * y / 4.0 + 1.1)
    curved = compute_geometry(corners, ref)
    assert affine.is_affine and not curved.is_affine
    rng = np.random.default_rng(1234 + p)
    return mesh, ref, affine, curved, rng


@pytest.fixture(scope="module")
def backends():
    """The oracle plus one instance of every candidate backend.

    Module-scoped on purpose: each instance is reused across the whole
    sweep, so the suite also exercises workspace reuse across many calls
    and meshes.
    """
    oracle = get_backend("reference")
    candidates = {name: get_backend(name) for name in CANDIDATE_BACKENDS}
    return oracle, candidates


class TestKernelParity:
    def test_gather(self, setup, backends):
        mesh, _ref, _affine, _curved, rng = setup
        oracle, candidates = backends
        for shape in [(mesh.num_nodes,), (5, mesh.num_nodes)]:
            field = rng.standard_normal(shape)
            a = oracle.gather(field, mesh.connectivity)
            for name, backend in candidates.items():
                b = backend.gather(field, mesh.connectivity)
                assert np.array_equal(a, b), name

    def test_scatter_add(self, setup, backends):
        mesh, ref, _affine, _curved, rng = setup
        oracle, candidates = backends
        values = rng.standard_normal((mesh.num_elements, ref.num_nodes))
        a = oracle.scatter_add(values, mesh.connectivity, mesh.num_nodes)
        for name, backend in candidates.items():
            b = backend.scatter_add(values, mesh.connectivity, mesh.num_nodes)
            assert rel_err(a, b) <= RTOL, name

    def test_scatter_add_many(self, setup, backends):
        mesh, ref, _affine, _curved, rng = setup
        oracle, candidates = backends
        values = rng.standard_normal((5, mesh.num_elements, ref.num_nodes))
        a = oracle.scatter_add_many(values, mesh.connectivity, mesh.num_nodes)
        for name, backend in candidates.items():
            b = backend.scatter_add_many(
                values, mesh.connectivity, mesh.num_nodes
            )
            assert rel_err(a, b) <= RTOL, name

    def test_reference_gradient(self, setup, backends):
        mesh, ref, _affine, _curved, rng = setup
        oracle, candidates = backends
        field = rng.standard_normal((mesh.num_elements, ref.num_nodes))
        a = oracle.reference_gradient(field, ref)
        for name, backend in candidates.items():
            b = backend.reference_gradient(field, ref)
            assert rel_err(a, b) <= RTOL, name

    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_physical_gradient(self, setup, backends, geometry):
        mesh, ref, affine, curved, rng = setup
        geom = affine if geometry == "affine" else curved
        oracle, candidates = backends
        field = rng.standard_normal((mesh.num_elements, ref.num_nodes))
        a = oracle.physical_gradient(field, geom, ref)
        for name, backend in candidates.items():
            b = backend.physical_gradient(field, geom, ref)
            assert rel_err(a, b) <= RTOL, name

    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_physical_gradient_many(self, setup, backends, geometry):
        mesh, ref, affine, curved, rng = setup
        geom = affine if geometry == "affine" else curved
        oracle, candidates = backends
        fields = rng.standard_normal((4, mesh.num_elements, ref.num_nodes))
        a = oracle.physical_gradient_many(fields, geom, ref)
        for name, backend in candidates.items():
            b = backend.physical_gradient_many(fields, geom, ref)
            assert rel_err(a, b) <= RTOL, name

    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_weak_divergence(self, setup, backends, geometry):
        mesh, ref, affine, curved, rng = setup
        geom = affine if geometry == "affine" else curved
        oracle, candidates = backends
        flux = rng.standard_normal((mesh.num_elements, ref.num_nodes, 3))
        a = oracle.weak_divergence(flux, geom, ref)
        for name, backend in candidates.items():
            b = backend.weak_divergence(flux, geom, ref)
            assert rel_err(a, b) <= RTOL, name

    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_weak_divergence_many(self, setup, backends, geometry):
        mesh, ref, affine, curved, rng = setup
        geom = affine if geometry == "affine" else curved
        oracle, candidates = backends
        fluxes = rng.standard_normal((5, mesh.num_elements, ref.num_nodes, 3))
        a = oracle.weak_divergence_many(fluxes, geom, ref)
        for name, backend in candidates.items():
            b = backend.weak_divergence_many(fluxes, geom, ref)
            assert rel_err(a, b) <= RTOL, name

    def test_kernels_bitwise_deterministic(self, setup, backends):
        """Every backend must return bit-identical results on repeat
        calls."""
        mesh, ref, _affine, curved, rng = setup
        _oracle, candidates = backends
        values = rng.standard_normal((5, mesh.num_elements, ref.num_nodes))
        fluxes = rng.standard_normal((5, mesh.num_elements, ref.num_nodes, 3))
        for name, backend in candidates.items():
            s1 = backend.scatter_add_many(
                values, mesh.connectivity, mesh.num_nodes
            )
            s2 = backend.scatter_add_many(
                values, mesh.connectivity, mesh.num_nodes
            )
            assert np.array_equal(s1, s2), name
            d1 = backend.weak_divergence_many(fluxes, curved, ref)
            d2 = backend.weak_divergence_many(fluxes, curved, ref)
            assert np.array_equal(d1, d2), name

    def test_workspace_reuse_does_not_leak_between_calls(self, setup, backends):
        """Two different inputs through the same backend instance must
        not contaminate each other via the reused workspaces."""
        mesh, ref, affine, _curved, rng = setup
        _oracle, candidates = backends
        f1 = rng.standard_normal((mesh.num_elements, ref.num_nodes, 3))
        f2 = rng.standard_normal((mesh.num_elements, ref.num_nodes, 3))
        for name, backend in candidates.items():
            first = backend.weak_divergence(f1, affine, ref).copy()
            backend.weak_divergence(f2, affine, ref)
            again = backend.weak_divergence(f1, affine, ref)
            assert np.array_equal(first, again), name

    def test_weak_divergence_many_result_is_caller_owned(self, setup, backends):
        """``weak_divergence_many`` returns a fresh array: the pipeline
        scales it in place, so no later call may write into it."""
        mesh, ref, affine, curved, rng = setup
        oracle, candidates = backends
        shape = (5, mesh.num_elements, ref.num_nodes, 3)
        f1 = rng.standard_normal(shape)
        f2 = rng.standard_normal(shape)
        for name, backend in {"reference": oracle, **candidates}.items():
            for geom in (affine, curved):
                first = backend.weak_divergence_many(f1, geom, ref)
                snapshot = first.copy()
                second = backend.weak_divergence_many(f2, geom, ref)
                assert not np.shares_memory(first, second), name
                assert not np.shares_memory(first, f1), name
                assert np.array_equal(first, snapshot), name


class TestMemoryOrder:
    """``fast`` keeps the ``(F, E, Q, 3)`` shape contracts over
    direction-major ``(F, 3, E, Q)`` memory, so the pointwise physics and
    the contravariant GEMMs read whole ``(E, Q)`` planes."""

    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_physical_gradient_many_is_direction_major(self, setup, geometry):
        mesh, ref, affine, curved, rng = setup
        geom = affine if geometry == "affine" else curved
        fields = rng.standard_normal((4, mesh.num_elements, ref.num_nodes))
        grads = get_backend("fast").physical_gradient_many(fields, geom, ref)
        assert grads.shape == fields.shape + (3,)
        assert np.moveaxis(grads, -1, 1).flags.c_contiguous

    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_net_flux_payload_is_direction_major(self, geometry):
        mesh = periodic_box_mesh(2, 3)
        if geometry == "curved":
            corners = mesh.corner_coords.copy()
            x, y, z = (mesh.corner_coords[..., i] for i in range(3))
            corners[..., 0] += 0.05 * np.sin(y * z / 4.0 + 0.3)
            mesh = replace(mesh, corner_coords=corners)
        op = NavierStokesOperator(mesh, DEFAULT_TGV.gas(), backend="fast")
        assert op.geom.is_affine == (geometry == "affine")
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        ctx = PipelineContext.from_operator(op)
        state_elem = ctx.backend.gather(stacked, mesh.connectivity)
        (payload,) = single_pass_net_flux(ctx, None, state_elem)
        assert payload.shape == state_elem.shape + (3,)
        assert np.moveaxis(payload, -1, 1).flags.c_contiguous


class TestFullRHSParity:
    @pytest.mark.parametrize("order", ORDERS)
    def test_tgv_rhs_matches_reference(self, order):
        """Full TGV right-hand side: every backend (and the fast fusion
        modes) vs the reference oracle."""
        mesh = periodic_box_mesh(2, order)
        gas = DEFAULT_TGV.gas()
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        oracle = NavierStokesOperator(mesh, gas, backend="reference")
        expected = oracle.residual(stacked)
        for kwargs in (
            {"backend": "fast"},
            {"backend": "fast", "fusion": "gather"},
            {"backend": "fast", "fusion": "full"},
        ):
            op = NavierStokesOperator(mesh, gas, **kwargs)
            got = op.residual(stacked)
            assert rel_err(expected, got) <= RTOL, kwargs

    @pytest.mark.parametrize("name", CANDIDATE_BACKENDS)
    def test_tgv_rhs_bitwise_deterministic(self, name):
        """Two independent backend instances produce the exact same
        full-RHS bits."""
        mesh = periodic_box_mesh(2, 5)
        gas = DEFAULT_TGV.gas()
        stacked = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
        op1 = NavierStokesOperator(mesh, gas, backend=name)
        op2 = NavierStokesOperator(mesh, gas, backend=name)
        r1 = op1.residual(stacked)
        r2 = op1.residual(stacked)
        r3 = op2.residual(stacked)
        assert np.array_equal(r1, r2)
        assert np.array_equal(r1, r3)

    @pytest.mark.parametrize("name", CANDIDATE_BACKENDS)
    def test_channel_rhs_matches_reference(self, name):
        """Wall-bounded channel shear flow RHS (non-periodic mesh, wall
        residual zeroing) agrees across backends."""
        case = TGVCase(mach=0.05, reynolds=100.0)
        mesh = channel_mesh(2, polynomial_order=3)
        gas = case.gas()
        stacked = decaying_shear_initial(mesh.coords, case).as_stacked()
        oracle = NavierStokesOperator(mesh, gas, backend="reference")
        expected = oracle.residual(stacked)
        op = NavierStokesOperator(mesh, gas, backend=name)
        got = op.residual(stacked)
        assert rel_err(expected, got) <= RTOL

    def test_fused_full_matches_split_over_steps(self):
        """Time integration with the fused fast operator tracks the
        reference run (error stays at rounding level over several steps)."""
        from repro.solver.simulation import Simulation

        mesh = periodic_box_mesh(2, 3)
        ref_sim = Simulation(mesh, DEFAULT_TGV, backend="reference")
        fast_sim = Simulation(mesh, DEFAULT_TGV, backend="fast", fusion="full")
        ref_res = ref_sim.run(3)
        fast_res = fast_sim.run(3)
        a = ref_res.final_state.as_stacked()
        b = fast_res.final_state.as_stacked()
        assert rel_err(a, b) <= 1e-9
        assert fast_sim.backend_name == "fast"

    @pytest.mark.parametrize("fusion", ["none", "gather", "full"])
    def test_channel_simulation_matches_reference(self, fusion):
        """Multi-step wall-bounded channel run on ``"fast"`` tracks the
        reference run under every fusion mode."""
        from repro.solver.simulation import Simulation

        case = TGVCase(mach=0.05, reynolds=100.0)
        mesh = channel_mesh(2, polynomial_order=3)
        init = decaying_shear_initial(mesh.coords, case)
        ref_sim = Simulation(
            mesh, case, initial_state=init, backend="reference"
        )
        fast_sim = Simulation(
            mesh, case, initial_state=init, backend="fast", fusion=fusion
        )
        a = ref_sim.run(3).final_state.as_stacked()
        b = fast_sim.run(3).final_state.as_stacked()
        assert rel_err(a, b) <= 1e-9


class TestDtypePropagationMatrix:
    """Every registered backend kernel, called with f32 or f64 inputs,
    must return exactly the requested dtype — the contract the precision
    modes (``repro.precision``) stand on. The matrix covers all eight
    kernels of the :class:`~repro.backend.KernelBackend` protocol on
    every backend, both geometries included for the metric-weighted
    kernels (whose float64 metric terms are the classic source of
    silent upcasts).
    """

    DTYPES = (np.float32, np.float64)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gather_and_scatter(self, setup, backends, dtype):
        mesh, ref, _affine, _curved, rng = setup
        oracle, candidates = backends
        field = rng.standard_normal((5, mesh.num_nodes)).astype(dtype)
        values = rng.standard_normal(
            (mesh.num_elements, ref.num_nodes)
        ).astype(dtype)
        many = rng.standard_normal(
            (5, mesh.num_elements, ref.num_nodes)
        ).astype(dtype)
        for name, backend in [("reference", oracle), *candidates.items()]:
            assert backend.gather(field, mesh.connectivity).dtype == dtype, name
            assert (
                backend.scatter_add(
                    values, mesh.connectivity, mesh.num_nodes
                ).dtype
                == dtype
            ), name
            assert (
                backend.scatter_add_many(
                    many, mesh.connectivity, mesh.num_nodes
                ).dtype
                == dtype
            ), name

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("geometry", ["affine", "curved"])
    def test_gradients_and_divergence(self, setup, backends, geometry, dtype):
        mesh, ref, affine, curved, rng = setup
        geom = affine if geometry == "affine" else curved
        oracle, candidates = backends
        field = rng.standard_normal(
            (mesh.num_elements, ref.num_nodes)
        ).astype(dtype)
        fields = rng.standard_normal(
            (4, mesh.num_elements, ref.num_nodes)
        ).astype(dtype)
        flux = rng.standard_normal(
            (mesh.num_elements, ref.num_nodes, 3)
        ).astype(dtype)
        fluxes = rng.standard_normal(
            (5, mesh.num_elements, ref.num_nodes, 3)
        ).astype(dtype)
        for name, backend in [("reference", oracle), *candidates.items()]:
            assert backend.reference_gradient(field, ref).dtype == dtype, name
            assert (
                backend.physical_gradient(field, geom, ref).dtype == dtype
            ), name
            assert (
                backend.physical_gradient_many(fields, geom, ref).dtype
                == dtype
            ), name
            assert (
                backend.weak_divergence(flux, geom, ref).dtype == dtype
            ), name
            assert (
                backend.weak_divergence_many(fluxes, geom, ref).dtype == dtype
            ), name

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_float32_kernels_stay_close_to_float64(self, setup, backends, dtype):
        """The f32 path is the same arithmetic, not a different algorithm:
        its results sit at the f32 rounding floor of the f64 answer."""
        mesh, ref, _affine, curved, rng = setup
        oracle, _candidates = backends
        field = rng.standard_normal((mesh.num_elements, ref.num_nodes))
        baseline = oracle.physical_gradient(field, curved, ref)
        got = oracle.physical_gradient(field.astype(dtype), curved, ref)
        tol = 1e-5 if dtype == np.float32 else 1e-15
        assert rel_err(baseline, np.asarray(got, dtype=np.float64)) <= tol


class TestDtypePreservation:
    def test_scatter_add_preserves_float32(self, setup, backends):
        """Regression: scatter_add used to silently upcast float32 inputs
        to float64. It must accumulate in float64 but hand back the input
        dtype — on every backend."""
        mesh, ref, _affine, _curved, rng = setup
        oracle, candidates = backends
        values32 = rng.standard_normal(
            (mesh.num_elements, ref.num_nodes)
        ).astype(np.float32)
        for backend in [oracle, *candidates.values()]:
            out = backend.scatter_add(values32, mesh.connectivity, mesh.num_nodes)
            assert out.dtype == np.float32
            many = backend.scatter_add_many(
                np.stack([values32, values32]), mesh.connectivity, mesh.num_nodes
            )
            assert many.dtype == np.float32

    def test_scatter_add_float64_accumulation(self, backends):
        """The float32 result equals the float64 accumulation rounded once
        (not a float32 running sum)."""
        conn = np.zeros((1, 4), dtype=np.int64)  # all four values hit node 0
        values = np.array([[1.0, 2**-24, 2**-24, 2**-24]], dtype=np.float32)
        expected = np.float32(np.float64(1.0) + 3 * np.float64(2**-24))
        oracle, candidates = backends
        for backend in [oracle, *candidates.values()]:
            out = backend.scatter_add(values, conn, 1)
            assert out.dtype == np.float32
            assert out[0] == expected

    def test_batched_defaults_preserve_float32(self, setup):
        """Regression: the KernelBackend ``*_many`` defaults allocated
        implicit-float64 outputs, silently upcasting float32 inputs even
        when the per-field primitive preserved the dtype."""
        from repro.backend import KernelBackend

        class DtypeFaithful(KernelBackend):
            """Primitives that keep the input dtype; *_many inherited."""

            name = "dtype-faithful"

            def gather(self, global_field, connectivity):
                return np.take(global_field, connectivity, axis=-1)

            def scatter_add(self, element_values, connectivity, num_nodes):
                raise NotImplementedError

            def reference_gradient(self, field, ref):
                raise NotImplementedError

            def physical_gradient(self, field, geom, ref):
                return np.stack([field, field, field], axis=-1)

            def weak_divergence(self, flux, geom, ref):
                return flux.sum(axis=-1)

        mesh, ref, affine, _curved, rng = setup
        backend = DtypeFaithful()
        fields = rng.standard_normal(
            (2, mesh.num_elements, ref.num_nodes)
        ).astype(np.float32)
        fluxes = rng.standard_normal(
            (2, mesh.num_elements, ref.num_nodes, 3)
        ).astype(np.float32)
        assert backend.physical_gradient_many(fields, affine, ref).dtype == np.float32
        assert backend.weak_divergence_many(fluxes, affine, ref).dtype == np.float32
