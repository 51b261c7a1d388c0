"""The co-simulator's step plan: built once per configuration, re-run.

:func:`~repro.accel.cosim.cosimulate_rk_stage` keeps each thread's last
launch set-up (operator, lowered chains, staging arrays, the wired
graph) and re-runs it when the next call's key matches. Reuse must be
invisible: every reused call is bitwise a fresh build, a result never
aliases the plan, any change of a key part builds afresh, and a run that
raises leaves no plan behind.
"""

import sys
import threading

import numpy as np
import pytest

import repro.accel.cosim as cosim_module
import repro.solver.navier_stokes as ns_module
from repro.accel.cosim import (
    cosimulate_rk_stage,
    exact_rkl_stage_cycles,
    exact_rku_step_cycles,
)
from repro.accel.designs import proposed_design
from repro.backend import FastBackend, register_backend, registry
from repro.dataflow.simulator import DataflowSimulator
from repro.dse import tiers
from repro.dse.campaign import DesignPoint
from repro.mesh.hexmesh import periodic_box_mesh
from repro.physics.taylor_green import TGVCase, taylor_green_initial
from repro.pipeline import PIPELINE_KERNELS
from repro.timeint.butcher import RK4_38

#: The configuration every test varies from.
BASE = dict(backend="fast", dtype="float32", num_cus=2, block_size=2,
            verify=False)


@pytest.fixture(autouse=True)
def no_plan():
    """Start and leave every test without a plan on this thread."""
    cosim_module._PLANS.plan = None
    yield
    cosim_module._PLANS.plan = None


def counting(monkeypatch, owner, name: str) -> list:
    """Patch ``owner.name`` (a callable or class) to count its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def plan_builds(monkeypatch) -> list:
    """Count :class:`_StepPlan` constructions."""
    return counting(monkeypatch, cosim_module._StepPlan, "__init__")


def assert_same(a, b):
    assert np.array_equal(
        a.final_state.as_stacked(), b.final_state.as_stacked()
    )
    assert np.array_equal(a.primitives, b.primitives)
    assert a.simulated_cycles == b.simulated_cycles
    assert a.per_stage_rkl_cycles == b.per_stage_rkl_cycles
    assert a.rku_simulated_cycles == b.rku_simulated_cycles
    assert a.dt == b.dt


def fresh(design, kwargs):
    """The call on a fresh mesh, so on a fresh plan."""
    return cosimulate_rk_stage(design, periodic_box_mesh(2, 2), **kwargs)


class TestReuse:
    def test_second_call_builds_nothing(self, monkeypatch):
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        first = cosimulate_rk_stage(design, mesh, **BASE)
        builds = counting(monkeypatch, cosim_module._RKLShards, "__init__")
        builds += counting(monkeypatch, cosim_module, "NavierStokesOperator")
        builds += counting(monkeypatch, DataflowSimulator, "__init__")
        second = cosimulate_rk_stage(design, mesh, **BASE)
        assert builds == []
        assert_same(second, first)

    def test_results_never_alias_the_plan(self):
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        first = cosimulate_rk_stage(design, mesh, **BASE)
        kept = first.final_state.as_stacked(), first.primitives.copy()
        other = taylor_green_initial(mesh.coords, TGVCase(mach=0.2))
        second = cosimulate_rk_stage(
            design, mesh, initial_state=other, **BASE
        )
        plan = cosim_module._PLANS.plan
        earlier = [
            first.final_state.rho, first.final_state.momentum,
            first.final_state.total_energy, first.primitives,
        ]
        later = [
            second.final_state.rho, second.final_state.momentum,
            second.final_state.total_energy, second.primitives,
        ]
        for array in earlier:
            for other_array in later + [plan.out_state, plan.out_primitives]:
                assert not np.shares_memory(array, other_array)
        for array in later:
            for plan_array in (plan.out_state, plan.out_primitives):
                assert not np.shares_memory(array, plan_array)
        # The earlier result is unchanged by the later call.
        assert np.array_equal(first.final_state.as_stacked(), kept[0])
        assert np.array_equal(first.primitives, kept[1])
        assert not np.array_equal(second.primitives, first.primitives)
        assert_same(second, fresh(design, dict(BASE, initial_state=other)))

    def test_two_step_reuse_is_bitwise(self, monkeypatch):
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        kwargs = dict(BASE, num_steps=2)
        first = cosimulate_rk_stage(design, mesh, **kwargs)
        builds = plan_builds(monkeypatch)
        second = cosimulate_rk_stage(design, mesh, **kwargs)
        assert builds == []
        assert_same(second, first)
        assert_same(second, fresh(design, kwargs))

    def test_engines_and_dt_are_per_call(self, monkeypatch):
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        first = cosimulate_rk_stage(design, mesh, **BASE)
        builds = plan_builds(monkeypatch)
        event = cosimulate_rk_stage(design, mesh, engine="event", **BASE)
        halved = cosimulate_rk_stage(design, mesh, dt=first.dt / 2, **BASE)
        assert builds == []
        assert_same(event, first)
        assert_same(halved, fresh(design, dict(BASE, dt=first.dt / 2)))

    def test_threads_match_a_serial_run(self):
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        states = [
            taylor_green_initial(mesh.coords, TGVCase(mach=mach))
            for mach in (0.1, 0.2, 0.3)
        ]
        serial = [
            cosimulate_rk_stage(design, mesh, initial_state=s, **BASE)
            for s in states
        ]
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def work(index: int) -> None:
            try:
                results[index] = [
                    cosimulate_rk_stage(design, mesh, initial_state=s, **BASE)
                    for s in states
                ]
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        # More threads than cores, switching often, so the shared mesh
        # memo, price table and chain templates see interleaved use.
        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for index in range(3):
            for got, want in zip(results[index], serial):
                assert_same(got, want)


#: One key part's change per case: the second call differs from
#: :data:`BASE` only there, on the first call's mesh and design.
KEY_PARTS = {
    "partitions": {"num_cus": None, "partitions": [
        np.arange(0, 8, 2), np.arange(1, 8, 2)]},
    "dtype": {"dtype": "float64"},
    "block_size": {"block_size": 4},
    "node_block_size": {"node_block_size": 16},
    "num_steps": {"num_steps": 2},
    "case": {"case": TGVCase(mach=0.05, reynolds=100.0)},
    "tableau": {"tableau": RK4_38},
    "backend_name": {"backend": "reference"},
}


class TestKey:
    @pytest.mark.parametrize("part", sorted(KEY_PARTS))
    def test_changed_part_rebuilds(self, monkeypatch, part):
        kwargs = dict(BASE, **KEY_PARTS[part])
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        cosimulate_rk_stage(design, mesh, **BASE)
        builds = plan_builds(monkeypatch)
        changed = cosimulate_rk_stage(design, mesh, **kwargs)
        assert len(builds) == 1
        assert_same(changed, fresh(design, kwargs))

    def test_partitions_are_keyed_by_value(self, monkeypatch):
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        halves = [list(range(4)), list(range(4, 8))]
        first = cosimulate_rk_stage(
            design, mesh, **dict(BASE, num_cus=None, partitions=halves)
        )
        builds = plan_builds(monkeypatch)
        equal = [np.arange(4), np.arange(4, 8)]
        again = cosimulate_rk_stage(
            design, mesh, **dict(BASE, num_cus=None, partitions=equal)
        )
        assert builds == []
        assert_same(again, first)
        swapped = [np.arange(4, 8), np.arange(4)]
        cosimulate_rk_stage(
            design, mesh, **dict(BASE, num_cus=None, partitions=swapped)
        )
        assert len(builds) == 1

    def test_environment_dtype_is_read_per_call(self, monkeypatch):
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        kwargs = dict(BASE, dtype=None)
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        cosimulate_rk_stage(design, mesh, **kwargs)
        builds = plan_builds(monkeypatch)
        monkeypatch.setenv("REPRO_DTYPE", "float64")
        changed = cosimulate_rk_stage(design, mesh, **kwargs)
        assert len(builds) == 1
        assert changed.final_state.as_stacked().dtype == np.float64
        assert_same(changed, fresh(design, dict(BASE, dtype="float64")))

    def test_backend_instance_is_keyed_by_identity(self, monkeypatch):
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        backend = FastBackend()
        kwargs = dict(BASE, backend=backend, dtype=None)
        cosimulate_rk_stage(design, mesh, **BASE)
        builds = plan_builds(monkeypatch)
        first = cosimulate_rk_stage(design, mesh, **kwargs)
        again = cosimulate_rk_stage(design, mesh, **kwargs)
        other = cosimulate_rk_stage(
            design, mesh, **dict(kwargs, backend=FastBackend())
        )
        # One build for the switch from a name, one for the new instance.
        assert len(builds) == 2
        assert_same(again, first)
        assert_same(other, first)

    def test_reregistered_backend_rebuilds(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        register_backend("plan-test", FastBackend)
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        kwargs = dict(BASE, backend="plan-test")
        first = cosimulate_rk_stage(design, mesh, **kwargs)
        builds = plan_builds(monkeypatch)
        cosimulate_rk_stage(design, mesh, **kwargs)
        assert builds == []
        register_backend(
            "plan-test", lambda precision=None: FastBackend(precision),
            overwrite=True,
        )
        again = cosimulate_rk_stage(design, mesh, **kwargs)
        assert len(builds) == 1
        assert_same(again, first)


class TestFailure:
    def test_a_failed_run_drops_the_plan(self, monkeypatch):
        design, mesh = proposed_design(), periodic_box_mesh(2, 2)
        cosimulate_rk_stage(design, mesh, **BASE)
        original = PIPELINE_KERNELS["stage_axpy"]
        raised = []

        def fail_once(*args, **kwargs):
            if not raised:
                raised.append(True)
                raise RuntimeError("injected stage_axpy failure")
            return original(*args, **kwargs)

        monkeypatch.setitem(PIPELINE_KERNELS, "stage_axpy", fail_once)
        with pytest.raises(RuntimeError, match="injected"):
            cosimulate_rk_stage(design, mesh, **BASE)
        assert getattr(cosim_module._PLANS, "plan", None) is None
        builds = plan_builds(monkeypatch)
        clean = cosimulate_rk_stage(design, mesh, **BASE)
        assert len(builds) == 1
        assert_same(clean, fresh(design, BASE))


class TestExactTier:
    def test_exact_tier_derives_no_streaming_plan(self, monkeypatch):
        def refuse(pipeline):
            raise AssertionError("the exact tier derived a streaming plan")

        monkeypatch.setattr(cosim_module, "streaming_plan", refuse)
        design, mesh = proposed_design(), periodic_box_mesh(2, 3)
        nodes, elements = mesh.num_nodes, mesh.num_elements
        # The cycles of templates that derived their plans eagerly.
        assert exact_rkl_stage_cycles(
            design, nodes, elements, block_size=4, num_cus=2
        ) == 844
        assert exact_rkl_stage_cycles(design, nodes, elements) == 967
        assert exact_rku_step_cycles(design, nodes) == 2360


class TestSharedFinalistMesh:
    def test_finalists_differing_in_cus_or_precision_share_geometry(
        self, monkeypatch
    ):
        monkeypatch.setattr(tiers, "_SHARED_MESHES", {})
        geometry = counting(monkeypatch, ns_module, "compute_geometry")
        base = DesignPoint(
            polynomial_order=2, elements_per_direction=2, num_cus=1,
            precision="float64",
        )
        points = [
            base,
            DesignPoint(**{**base.spec(), "num_cus": 2}),
            DesignPoint(**{**base.spec(), "precision": "float32"}),
        ]
        shared = [tiers.evaluate_cosim(p, verify=False) for p in points]
        assert geometry == ["compute_geometry"]
        mesh = tiers._shared_mesh(base)
        assert not mesh.coords.flags.writeable
        assert not mesh.connectivity.flags.writeable
        # Each point alone, on its own mesh and plan, prices the same.
        for point, result in zip(points, shared):
            cosim_module._PLANS.plan = None
            tiers._SHARED_MESHES.clear()
            assert tiers.evaluate_cosim(point, verify=False) == result

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tiers, "_SHARED_MESHES", {})
        for elements in range(1, tiers._MAX_SHARED_MESHES + 3):
            point = DesignPoint(
                polynomial_order=2, elements_per_direction=elements
            )
            tiers._shared_mesh(point)
        assert len(tiers._SHARED_MESHES) == tiers._MAX_SHARED_MESHES
