"""The process's shared cosim pool: reuse across campaigns, and the
re-fork rule.

One :class:`~repro.dse.pool.SupervisedPool` serves the cosim tier of
every campaign in a process. These tests pin what reuse must keep: a
reused pool forks nothing, sees every fault plan, replaces workers that
died while idle, writes each campaign's segments to that campaign's
cache directory, and accounts each campaign on its own; and a forked
child never drives its parent's workers.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro.backend import registry
from repro.dataflow import set_schedule_cache
from repro.dse import (
    CampaignSpec,
    DesignPoint,
    ResultCache,
    RetryPolicy,
    SupervisedPool,
    run_campaign,
)
from repro.dse import pool as pool_module
from repro.dse.cache import cache_key
from repro.testing import FaultSpec, injected_faults

SPEC = CampaignSpec(
    name="shared-pool",
    axes=[("num_cus", (1, 2, 3, 4))],
    base=DesignPoint(device="hbm"),
    max_survivors=4,
    max_cosim=2,
)
#: Same axes around another block size: its finalists are other points.
OTHER_SPEC = dataclasses.replace(
    SPEC,
    name="shared-pool-other",
    base=DesignPoint(device="hbm", block_size=2),
)
RETRY = RetryPolicy(max_retries=2, batch_timeout=10.0, backoff_base=0.01)


def _view(result) -> list:
    return [
        [r.to_dict() for r in tier]
        for tier in (result.results, result.survivors, result.cosim)
    ]


def _cosim(spec, **kwargs):
    kwargs.setdefault("workers", 2)
    return run_campaign(spec, highest_tier="cosim", retry=RETRY, **kwargs)


def _worker_pids() -> list[int]:
    return [
        proc.pid for proc in pool_module._shared._workers if proc is not None
    ]


@pytest.fixture()
def spawns(monkeypatch):
    """Every worker fork, as ``(pool, slot)`` (holding the pool keeps
    its id from being reused)."""
    forks: list[tuple[SupervisedPool, int]] = []
    original = SupervisedPool._spawn

    def counting(self, slot):
        forks.append((self, slot))
        original(self, slot)

    monkeypatch.setattr(SupervisedPool, "_spawn", counting)
    return forks


def test_second_campaign_forks_no_worker(monkeypatch):
    first = _cosim(SPEC)

    def refuse(self, slot):
        raise AssertionError("a reused pool forked a worker")

    monkeypatch.setattr(SupervisedPool, "_spawn", refuse)
    second = _cosim(SPEC)
    other = _cosim(OTHER_SPEC)
    assert _view(second) == _view(first)
    assert len(other.cosim) == OTHER_SPEC.max_cosim
    assert not second.failures and not other.failures


def _wrapped(factory):
    """Another factory object building the same backend."""

    def replacement(**kwargs):
        return factory(**kwargs)

    return replacement


@pytest.mark.parametrize(
    "change", ["workers", "backends", "overwritten", "schedule", "plan"]
)
def test_changed_inherited_state_forks_a_new_pool(change, spawns, monkeypatch):
    """Each piece of state a worker inherits at its fork — the width,
    the backend registry (names and factories), the schedule-cache
    switch, the installed fault plan — forks a fresh pool when it
    changes; an unchanged one is reused."""
    first = _cosim(SPEC)
    assert len(spawns) == 2
    _cosim(SPEC)
    assert len(spawns) == 2, "an unchanged configuration must reuse the pool"
    workers = 2
    if change == "workers":
        workers = 1
    elif change == "backends":
        monkeypatch.setitem(
            registry._REGISTRY, "spare", registry._REGISTRY["reference"]
        )
    elif change == "overwritten":
        for name in registry.available_backends():
            factory = registry._REGISTRY[name]
            monkeypatch.setitem(registry._REGISTRY, name, factory)
            registry.register_backend(name, _wrapped(factory), overwrite=True)
    if change == "plan":
        unfired = FaultSpec(site="dse.worker", kind="crash", at=(99,))
        with injected_faults(unfired):
            result = _cosim(SPEC, workers=workers)
    elif change == "schedule":
        previous = set_schedule_cache(False)
        try:
            result = _cosim(SPEC, workers=workers)
        finally:
            set_schedule_cache(previous)
    else:
        result = _cosim(SPEC, workers=workers)
    assert len(spawns) == 2 + workers
    assert len({id(pool) for pool, _ in spawns}) == 2
    assert _view(result) == _view(first)


def test_pool_forks_only_the_workers_a_campaign_prices_on(spawns):
    """A campaign with fewer finalists than ``workers`` forks one worker
    per finalist; a later campaign with more grows the same pool."""
    _cosim(SPEC, workers=4)
    assert [slot for _, slot in spawns] == [0, 1]
    wider = dataclasses.replace(SPEC, max_cosim=4)
    result = _cosim(wider, workers=4)
    assert len(result.cosim) == 4
    assert [slot for _, slot in spawns] == [0, 1, 2, 3]
    assert len({id(pool) for pool, _ in spawns}) == 1
    assert result.supervision.respawns == 0


def test_fault_plan_installed_after_the_pool_reaches_its_workers():
    clean = _cosim(SPEC)
    with injected_faults(
        FaultSpec(site="dse.worker", kind="crash", at=(0,))
    ) as plan:
        faulted = _cosim(SPEC)
    assert plan.total_fired() == 1, "the workers must hold the new plan"
    assert faulted.supervision.crashes == 1
    assert not faulted.failures
    assert _view(faulted) == _view(clean)


def test_worker_killed_between_campaigns_is_respawned():
    first = _cosim(SPEC)
    victim = pool_module._shared._workers[0]
    victim.kill()
    victim.join(10)
    assert not victim.is_alive()
    second = _cosim(SPEC)
    # Replaced before dispatch: no batch is lost to the dead worker.
    assert second.supervision.respawns == 1
    assert second.supervision.retries == 0
    assert second.supervision.crashes == 0
    assert victim.pid not in _worker_pids()
    assert _view(second) == _view(first)


def _segment_keys(directory) -> set[str]:
    return {
        line.split(" ", 1)[0]
        for seg in directory.glob("*.seg")
        for line in seg.read_text().splitlines()
    }


def test_each_campaign_writes_its_own_cache_directory(tmp_path):
    first = _cosim(SPEC, cache=ResultCache(tmp_path / "a"))
    other = _cosim(OTHER_SPEC, cache=ResultCache(tmp_path / "b"))
    mine = {cache_key(r.point, "cosim") for r in first.cosim}
    theirs = {cache_key(r.point, "cosim") for r in other.cosim}
    assert len(mine) == len(theirs) == 2 and not mine & theirs
    in_a = _segment_keys(tmp_path / "a")
    in_b = _segment_keys(tmp_path / "b")
    assert mine <= in_a and not theirs & in_a
    assert theirs <= in_b and not mine & in_b


def test_supervision_counts_one_campaign():
    for _ in range(2):
        result = _cosim(SPEC)
        assert result.supervision.dispatched == SPEC.max_cosim
        assert result.supervision.completed == SPEC.max_cosim


def _child_campaign(out_path: str) -> None:
    result = _cosim(SPEC)
    pids = _worker_pids()
    pool_module.close_shared_pool()
    with open(out_path, "w") as handle:
        json.dump({"pids": pids, "view": _view(result)}, handle)


def test_forked_child_gets_its_own_pool(tmp_path, monkeypatch):
    first = _cosim(SPEC)
    parent_pids = _worker_pids()
    out = tmp_path / "child.json"
    child = multiprocessing.get_context("fork").Process(
        target=_child_campaign, args=(str(out),)
    )
    child.start()
    child.join(120)
    assert child.exitcode == 0
    report = json.loads(out.read_text())
    assert not set(report["pids"]) & set(parent_pids)
    assert report["view"] == json.loads(json.dumps(_view(first)))

    def refuse(self, slot):
        raise AssertionError("the parent's pool had to fork again")

    monkeypatch.setattr(SupervisedPool, "_spawn", refuse)
    again = _cosim(SPEC)
    assert _worker_pids() == parent_pids
    assert again.supervision.respawns == 0
    assert _view(again) == _view(first)


def test_plain_forked_child_leaves_the_parents_workers_alive(monkeypatch):
    """A child made by ``os.fork()`` that exits through the interpreter's
    exit handlers (``multiprocessing``'s included) must not signal the
    parent's idle workers."""
    first = _cosim(SPEC)
    parent_pids = _worker_pids()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            code = 0 if pool_module._shared is None else 2
            atexit._run_exitfuncs()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    for worker in pool_module._shared._workers:
        assert worker.is_alive()

    def refuse(self, slot):
        raise AssertionError("the parent's pool had to fork again")

    monkeypatch.setattr(SupervisedPool, "_spawn", refuse)
    again = _cosim(SPEC)
    assert _worker_pids() == parent_pids
    assert again.supervision.respawns == 0
    assert _view(again) == _view(first)


def test_exception_escaping_the_pool_drops_it(monkeypatch):
    _cosim(SPEC)
    workers = list(pool_module._shared._workers)

    def broken(self, *args, **kwargs):
        raise RuntimeError("supervision loop failed")

    monkeypatch.setattr(SupervisedPool, "run", broken)
    with pytest.raises(RuntimeError, match="supervision loop failed"):
        _cosim(SPEC)
    assert pool_module._shared is None
    assert not any(proc.is_alive() for proc in workers)


def test_concurrent_campaigns_take_turns_on_the_pool():
    """Campaigns on three threads share one pool: each gets its own
    results and its own accounting, as if run alone."""
    expected = _view(_cosim(SPEC))
    outcomes: list = []

    def campaign() -> None:
        outcomes.append(_cosim(SPEC))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=campaign) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(outcomes) == 3
    for result in outcomes:
        assert _view(result) == expected
        assert result.supervision.dispatched == SPEC.max_cosim
        assert result.supervision.retries == 0
