"""Unit tests of the deterministic fault-injection harness itself.

The fault-tolerance suites (tests/dse/test_faults.py,
tests/backend/test_parallel_faults.py) lean on this harness for every
recovery-path assertion, so its own semantics — determinism, shared
firing budgets, seam no-op behavior — are pinned here first.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.testing import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear_faults,
    injected_faults,
    install_faults,
    seeded_contexts,
    trip,
)


def test_no_plan_trip_is_noop():
    clear_faults()
    assert trip("dse.worker", context=0) is None
    assert active_plan() is None


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(site="x", kind="meltdown")


def test_error_kind_raises_injected_fault():
    with injected_faults(FaultSpec(site="s", kind="error")):
        with pytest.raises(InjectedFault):
            trip("s")


def test_disk_full_kind_raises_enospc():
    import errno

    with injected_faults(FaultSpec(site="s", kind="disk-full")):
        with pytest.raises(OSError) as excinfo:
            trip("s")
    assert excinfo.value.errno == errno.ENOSPC


def test_poison_and_truncate_returned_to_seam():
    spec = FaultSpec(site="s", kind="poison")
    with injected_faults(spec):
        assert trip("s") is spec
    spec = FaultSpec(site="s", kind="truncate")
    with injected_faults(spec):
        assert trip("s") is spec


def test_context_matching():
    spec = FaultSpec(site="s", kind="error", at=(2, 5), times=0)
    with injected_faults(spec):
        assert trip("s", context=0) is None
        assert trip("other", context=2) is None
        with pytest.raises(InjectedFault):
            trip("s", context=2)
        with pytest.raises(InjectedFault):
            trip("s", context=5)


def test_empty_at_matches_any_context():
    spec = FaultSpec(site="s", kind="poison", times=0)
    with injected_faults(spec):
        assert trip("s", context=123) is spec
        assert trip("s") is spec


def test_times_budget_exhausts():
    spec = FaultSpec(site="s", kind="poison", times=2)
    with injected_faults(spec) as plan:
        assert trip("s") is spec
        assert trip("s") is spec
        assert trip("s") is None  # budget spent
        assert plan.total_fired() == 2
    assert spec.fired == 2


def test_specs_sharing_a_site_and_context_fire_in_order():
    """A spent spec does not shadow the next one at the same seam."""
    first = FaultSpec(site="s", kind="poison", at=(0,))
    second = FaultSpec(site="s", kind="truncate", at=(0,))
    with injected_faults(first, second):
        assert trip("s", 0) is first
        assert trip("s", 0) is second
        assert trip("s", 0) is None
    assert first.fired == second.fired == 1


def test_context_manager_scopes_install():
    with injected_faults(FaultSpec(site="s", kind="poison")) as plan:
        assert active_plan() is plan
    assert active_plan() is None


def test_install_accepts_whole_plan():
    plan = FaultPlan(FaultSpec(site="s", kind="poison"))
    with injected_faults(plan) as installed:
        assert installed is plan


def test_seeded_contexts_deterministic_and_distinct():
    a = seeded_contexts(42, population=100, count=5)
    b = seeded_contexts(42, population=100, count=5)
    assert a == b
    assert len(set(a)) == 5
    assert all(0 <= c < 100 for c in a)
    assert seeded_contexts(43, population=100, count=5) != a
    with pytest.raises(ValueError):
        seeded_contexts(1, population=3, count=4)


def test_seeded_contexts_place_one_fault_each():
    """One single-shot spec per seeded context fires at exactly those
    contexts of a sweep, once each."""
    contexts = seeded_contexts(7, population=30, count=3)
    plan = FaultPlan(
        *(FaultSpec(site="s", kind="poison", at=(c,)) for c in contexts)
    )
    with injected_faults(plan):
        fired = [i for i in range(30) for _ in range(2) if trip("s", context=i)]
    assert tuple(fired) == contexts
    assert plan.total_fired() == 3


def _child_trips(spec, n, queue):
    fired = 0
    for i in range(n):
        if trip("s", context=i) is not None:
            fired += 1
    queue.put(fired)


def test_budget_shared_across_forked_processes():
    """`times=1` means once across the WHOLE fleet: many forked children
    hammering the same spec collectively fire exactly once."""
    ctx = multiprocessing.get_context("fork")
    spec = FaultSpec(site="s", kind="poison", times=1)
    install_faults(FaultPlan(spec))
    try:
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_child_trips, args=(spec, 50, queue))
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        total = sum(queue.get(timeout=30) for _ in procs)
        for proc in procs:
            proc.join(10)
        assert total == 1
        assert spec.fired == 1  # visible in the parent too
    finally:
        clear_faults()


def test_all_kinds_enumerated():
    assert set(FAULT_KINDS) == {
        "crash",
        "hang",
        "poison",
        "error",
        "disk-full",
        "truncate",
    }
