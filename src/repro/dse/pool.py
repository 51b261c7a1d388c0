"""Supervised process pool for campaign evaluations.

A bare ``ProcessPoolExecutor`` dies with its first segfaulting worker
or hung batch, and takes every priced point with it. This pool runs
the supervision loop a batch scheduler would run instead. It is
tier-agnostic: it prices ``(index, point)`` batches at whatever tier it
is given; the executor hands it the cosim tier, one point per batch.

- **per-batch deadlines** — a dispatched batch that does not reply
  within :attr:`RetryPolicy.batch_timeout` seconds has its worker
  killed and is retried elsewhere;
- **dead-worker detection and respawn** — an ``EOF``/``BrokenPipe`` on
  a worker channel (the observable of ``os._exit``, a segfault, or an
  OOM kill) frees the slot, and a fresh fork-started worker takes it;
- **capped-exponential-backoff retry** — a faulted batch re-enters the
  queue after :meth:`RetryPolicy.backoff_seconds`, up to
  :attr:`RetryPolicy.max_retries` re-dispatches;
- **bisection quarantine** — a batch that exhausts its retries is split
  in half and each half starts fresh, so repeated faults isolate the
  *offending* point(s); a single-point batch that exhausts its retries
  is quarantined as a structured failure (never an exception), and the
  campaign completes with an explicit casualty list;
- **poisoned-message rejection** — a reply that is not the protocol's
  ``("done", batch_id, entries)`` shape marks the worker compromised:
  kill, respawn, retry the batch.

Worker-side exceptions are *not* retried: the worker prices each point
under ``try/except`` and reports a per-point error entry — a
deterministic failure re-raised as a quarantined
:class:`~repro.dse.tiers.PointResult`, not worth burning retries on.

Determinism: batches carry ids, entries carry point indices, and the
caller merges by index — results are ordered by campaign position no
matter which worker priced what, how often a batch was retried, or how
bisection re-chunked it.

Fault seams (no-ops unless a :mod:`repro.testing.faults` plan is
installed): ``"dse.worker"`` fires in a worker as it picks up a batch
(context = batch id; crash / hang / poison), ``"dse.point"`` fires
before each point evaluation (context = point index; error / crash),
and ``"dse.batch"`` fires in the parent after each completed batch
(context = ``(tier, batches completed in this run)``; the executor's
in-parent tiers trip it after each persisted chunk, so a
kill-then-resume test crashes the *campaign* in the tier it names).

**One pool per process.** :func:`shared_pool` hands every campaign's
cosim tier the same live pool, so only the first campaign pays for the
fork, the teardown and the cold first point of each worker. It forks a
new pool only when the old one's workers would no longer match what a
fresh fork inherits: at another width, under another installed fault
plan, with other registered backends (names or factories), or with the
schedule cache switched. A pool forks a worker only when a run has a
batch for it, so a campaign with fewer finalists than ``workers`` forks
no idle ones. A worker builds any design it lacks on demand and writes
each batch's segment to the directory named in that batch's message,
so one pool serves campaigns over any cache directory.

**Forked children.** Every child forked from a process that holds pools
(a pool's own workers included) drops, at the fork, its copies of every
pool's pipe ends and worker handles, and forgets the shared pool: it
forks its own when it needs one, and it never messages, signals or
reaps its parent's workers, not even from ``multiprocessing``'s exit
handler.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from multiprocessing import connection
from multiprocessing import process as mp_process

from ..backend import registry
from ..dataflow import schedule
from ..errors import DSEError
from ..testing import faults
from .cache import ResultCache, cache_key
from .tiers import price_feasible

#: Graceful close: seconds a worker gets to acknowledge ``("close",)``
#: before join escalates to ``terminate()`` and then ``kill()``.
_JOIN_TIMEOUT = 5.0
_ESCALATION_TIMEOUT = 1.0

#: Ceiling on one supervision wait. Both the backoff sleep and the reply
#: wait return within this many seconds, so the loop re-checks its
#: deadlines and backoffs at least this often, even with none armed.
_MAX_WAIT = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs of one campaign run.

    Parameters
    ----------
    max_retries:
        Re-dispatches a batch gets after a pool fault (crash, hang,
        poisoned reply) before it is bisected / quarantined.
    batch_timeout:
        Per-batch deadline in seconds; ``None`` disables hang
        detection (a dead worker is still detected via its pipe).
    backoff_base / backoff_max:
        Capped exponential backoff between re-dispatches of the same
        batch: ``min(backoff_max, backoff_base * 2**attempt)``.
    """

    max_retries: int = 2
    batch_timeout: float | None = 120.0
    backoff_base: float = 0.05
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise DSEError("max_retries must be >= 0")
        if self.batch_timeout is not None and self.batch_timeout <= 0:
            raise DSEError("batch_timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise DSEError(
                "backoff must satisfy 0 <= backoff_base <= backoff_max"
            )

    def backoff_seconds(self, attempt: int) -> float:
        return min(self.backoff_max, self.backoff_base * (2.0**attempt))


@dataclass
class PoolStats:
    """Supervision accounting of one pool (cumulative across runs)."""

    dispatched: int = 0
    completed: int = 0
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    crashes: int = 0
    poisoned: int = 0
    splits: int = 0
    quarantined: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def merge(self, other: "PoolStats") -> None:
        for name in self.to_dict():
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def since(self, earlier: "PoolStats") -> "PoolStats":
        """The counts accrued after the snapshot ``earlier``."""
        return PoolStats(
            **{
                name: value - getattr(earlier, name)
                for name, value in self.to_dict().items()
            }
        )


@dataclass
class _Attempt:
    """One (re)dispatch of a batch of ``(index, point)`` items."""

    batch_id: int
    items: list
    attempt: int = 0
    ready_at: float = 0.0


def evaluate_one(index: int, point, tier: str, options: dict):
    """Price one campaign point (the shared per-point seam of the pool
    worker and the executor's in-parent grid and exact tiers). Campaign
    points passed :meth:`CampaignSpec.expand
    <repro.dse.campaign.CampaignSpec.expand>`'s feasibility filter, so
    it is not checked again here."""
    faults.trip("dse.point", context=index)
    return price_feasible(point, tier, **options)


def _pool_worker(channel) -> None:
    """Worker main loop: price batches, report per-point outcomes.

    Every point is priced under ``try/except``: a deterministic
    evaluation error becomes a structured ``("error", message)`` entry
    instead of killing the worker, so only genuine process faults
    (crash, hang, kill) ever cost the supervisor a retry. The batch's
    successful results are persisted as one segment to the cache
    directory its message names, before the reply, so a parent crash
    after this batch loses nothing. Each batch writes through a fresh
    :class:`~repro.dse.cache.ResultCache`: a reused worker keeps no
    result in memory from one batch to the next.

    The at-fork hook has already closed this worker's copies of every
    pool's parent-side pipe ends, its own channel's included: a worker
    holding a copy of its own parent end would never see EOF after a
    parent crash (``os._exit``, SIGKILL) and would orphan forever
    instead of exiting.
    """
    while True:
        try:
            msg = channel.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "close":
            try:
                channel.send(("closed",))
            except (BrokenPipeError, OSError):
                pass
            break
        _, batch_id, tier, items, options, cache_dir = msg
        fired = faults.trip("dse.worker", context=batch_id)
        if fired is not None and fired.kind == "poison":
            # A poisoned pipe message: garbage instead of the protocol
            # reply. The supervisor must treat the worker as
            # compromised (kill, respawn, retry the batch).
            channel.send(["poisoned-pipe-message", batch_id])
            continue
        entries = []
        priced = []
        for index, point in items:
            try:
                result = evaluate_one(index, point, tier, options)
            except Exception as exc:  # noqa: BLE001 - quarantined upstream
                entries.append(
                    (index, "error", f"{type(exc).__name__}: {exc}")
                )
            else:
                if cache_dir is not None:
                    priced.append((cache_key(point, tier), result))
                entries.append((index, "ok", result))
        if priced:
            ResultCache(cache_dir).put_many(priced)
        try:
            channel.send(("done", batch_id, entries))
        except (BrokenPipeError, OSError):
            break
    channel.close()


def _reap(proc, join_timeout: float | None = None) -> None:
    """Join with escalation: join -> terminate -> kill -> join.

    A wedged worker can never hang the caller: after ``join_timeout``
    it is terminated, after :data:`_ESCALATION_TIMEOUT` more it is
    SIGKILLed (which no handler can ignore), and the final join reaps
    the zombie.
    """
    timeout = _JOIN_TIMEOUT if join_timeout is None else join_timeout
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join(_ESCALATION_TIMEOUT)
    if proc.is_alive():
        proc.kill()
        proc.join()


class SupervisedPool:
    """A fork-started worker pool that survives its own workers.

    Parameters
    ----------
    num_workers:
        Worker process count (>= 1).
    retry:
        The :class:`RetryPolicy`; defaults to the module default.
    """

    def __init__(
        self,
        num_workers: int,
        *,
        retry: RetryPolicy | None = None,
    ) -> None:
        if num_workers < 1:
            raise DSEError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self.retry = retry or RetryPolicy()
        self.stats = PoolStats()
        self._workers: list = []
        self._channels: list = []
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def forked(self) -> bool:
        """True once a worker has been started."""
        return any(proc is not None for proc in self._workers)

    def close(self) -> None:
        """Tear the pool down: ask every worker to exit, then reap it."""
        _pools.discard(self)
        workers, self._workers = self._workers, []
        channels, self._channels = self._channels, []
        for chan in channels:
            if chan is None:
                continue
            try:
                chan.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc in workers:
            if proc is not None:
                _reap(proc)
        for chan in channels:
            if chan is not None:
                chan.close()

    def _spawn(self, slot: int) -> None:
        parent_end, child_end = self._ctx.Pipe()
        # Registered before the fork, so the worker's at-fork hook
        # closes its copy of its own parent end too.
        self._channels[slot] = parent_end
        _pools.add(self)
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(child_end,),
            daemon=True,
            name=f"dse-pool-{slot}",
        )
        proc.start()
        child_end.close()
        self._workers[slot] = proc

    def _ensure(self, count: int) -> None:
        """Have live workers in the first ``count`` slots: fork the ones
        never started, respawn any that died while the pool was idle."""
        if not self._workers:
            self._workers = [None] * self.num_workers
            self._channels = [None] * self.num_workers
        for slot in range(count):
            proc = self._workers[slot]
            if proc is None:
                self._spawn(slot)
            elif not proc.is_alive():
                self._replace(slot)

    def _forget(self) -> None:
        """In a forked child: drop this process's copies of the pool's
        pipe ends and worker handles. The workers are the parent's, so
        ``multiprocessing``'s exit handler must not see them as this
        process's children and terminate them."""
        for chan in self._channels:
            if chan is not None:
                chan.close()
        for proc in self._workers:
            if proc is not None:
                mp_process._children.discard(proc)
        self._workers, self._channels = [], []

    def _replace(self, slot: int) -> None:
        """Kill slot's worker (it is dead or compromised) and respawn."""
        proc = self._workers[slot]
        chan = self._channels[slot]
        self._channels[slot] = None
        if chan is not None:
            chan.close()
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join()
        self._spawn(slot)
        self.stats.respawns += 1

    # -- supervision loop ----------------------------------------------------

    def run(
        self,
        tier: str,
        batches: list[list],
        options: dict | None = None,
        *,
        cache_dir=None,
    ):
        """Price every ``(index, point)`` item of every batch.

        Workers persist each batch's results as one segment in
        ``cache_dir`` (``None``: no worker-side persistence). The run
        uses one worker per non-empty batch, at most ``num_workers``,
        and forks any of them not yet started.

        Returns ``(results, failures)``: ``results`` maps point index to
        its :class:`~repro.dse.tiers.PointResult`; ``failures`` maps
        point index to ``(point, error_message)`` for quarantined
        points.
        """
        options = options or {}
        cache_dir = None if cache_dir is None else str(cache_dir)
        width = min(self.num_workers, sum(1 for items in batches if items))
        self._ensure(width)
        completed = 0
        results: dict[int, object] = {}
        failures: dict[int, tuple] = {}
        points_by_index = {
            index: point for batch in batches for index, point in batch
        }
        pending: deque[_Attempt] = deque(
            _Attempt(batch_id, list(items))
            for batch_id, items in enumerate(batches)
            if items
        )
        next_batch_id = len(batches)
        busy: dict[int, tuple[_Attempt, float | None]] = {}
        idle = list(range(width))

        def fault(att: _Attempt, reason: str) -> None:
            """A pool-level fault on a dispatched batch: retry with
            backoff, bisect after the retry budget, quarantine last."""
            now = time.monotonic()
            if att.attempt < self.retry.max_retries:
                self.stats.retries += 1
                pending.append(
                    _Attempt(
                        att.batch_id,
                        att.items,
                        att.attempt + 1,
                        now + self.retry.backoff_seconds(att.attempt),
                    )
                )
                return
            if len(att.items) > 1:
                nonlocal next_batch_id
                self.stats.splits += 1
                mid = len(att.items) // 2
                for part in (att.items[:mid], att.items[mid:]):
                    pending.append(
                        _Attempt(
                            next_batch_id,
                            part,
                            0,
                            now + self.retry.backoff_seconds(att.attempt),
                        )
                    )
                    next_batch_id += 1
                return
            ((index, point),) = att.items
            failures[index] = (point, reason)
            self.stats.quarantined += 1

        while pending or busy:
            now = time.monotonic()
            # Dispatch every ready attempt onto an idle worker.
            dispatched_any = True
            while idle and dispatched_any:
                dispatched_any = False
                for _ in range(len(pending)):
                    att = pending.popleft()
                    if att.ready_at > now:
                        pending.append(att)
                        continue
                    slot = idle.pop()
                    try:
                        self._channels[slot].send(
                            (
                                "run", att.batch_id, tier, att.items,
                                options, cache_dir,
                            )
                        )
                    except (BrokenPipeError, OSError):
                        self.stats.crashes += 1
                        self._replace(slot)
                        idle.append(slot)
                        fault(att, "worker unreachable at dispatch")
                        continue
                    deadline = (
                        None
                        if self.retry.batch_timeout is None
                        else now + self.retry.batch_timeout
                    )
                    busy[slot] = (att, deadline)
                    self.stats.dispatched += 1
                    dispatched_any = True
                    break
            if not busy:
                if pending:  # every attempt is backing off
                    wake = min(att.ready_at for att in pending)
                    time.sleep(min(_MAX_WAIT, max(0.0, wake - now)))
                continue
            # Wait for a reply, a death, a deadline, or a backoff expiry.
            wait_for = _MAX_WAIT
            for _, deadline in busy.values():
                if deadline is not None:
                    wait_for = min(wait_for, max(0.0, deadline - now))
            if idle:
                # A backoff expiry only matters while a worker is free
                # to take the attempt; with every worker busy the next
                # reply wakes the loop anyway. (Attempts merely queued
                # behind busy workers must NOT clamp the wait to zero —
                # that turns the reply wait into a busy spin.)
                for att in pending:
                    wait_for = min(wait_for, max(0.0, att.ready_at - now))
            chan_slots = {self._channels[slot]: slot for slot in busy}
            ready = connection.wait(list(chan_slots), timeout=wait_for)
            for chan in ready:
                slot = chan_slots[chan]
                att, _deadline = busy.pop(slot)
                try:
                    msg = chan.recv()
                except (EOFError, OSError):
                    self.stats.crashes += 1
                    self._replace(slot)
                    idle.append(slot)
                    fault(
                        att,
                        f"worker died pricing batch {att.batch_id} "
                        f"(attempt {att.attempt + 1})",
                    )
                    continue
                protocol_ok = (
                    isinstance(msg, tuple)
                    and len(msg) == 3
                    and msg[0] == "done"
                    and msg[1] == att.batch_id
                )
                if not protocol_ok:
                    self.stats.poisoned += 1
                    self._replace(slot)
                    idle.append(slot)
                    fault(
                        att,
                        f"poisoned reply pricing batch {att.batch_id}: "
                        f"{type(msg).__name__}",
                    )
                    continue
                idle.append(slot)
                self.stats.completed += 1
                completed += 1
                entries = msg[2]
                for index, status, payload in entries:
                    if status == "ok":
                        results[index] = payload
                    else:
                        failures[index] = (points_by_index[index], payload)
                        self.stats.quarantined += 1
                faults.trip("dse.batch", context=(tier, completed))
            # Deadline enforcement on whoever is still out.
            now = time.monotonic()
            for slot in list(busy):
                att, deadline = busy[slot]
                if deadline is not None and now >= deadline:
                    self.stats.timeouts += 1
                    busy.pop(slot)
                    self._replace(slot)
                    idle.append(slot)
                    fault(
                        att,
                        f"batch {att.batch_id} exceeded its "
                        f"{self.retry.batch_timeout}s deadline "
                        f"(attempt {att.attempt + 1})",
                    )
        return results, failures


# -- the process's shared pool ------------------------------------------------

#: The live pool every campaign's cosim tier reuses, and the state its
#: workers inherited at their fork (see :func:`_inherited_state`).
_shared: SupervisedPool | None = None
_shared_state: tuple | None = None
#: Serialises the cosim tiers of concurrent campaigns in one process.
_shared_lock = threading.Lock()
#: Every pool with started workers, shared or not: a forked child drops
#: its copies of them.
_pools: "weakref.WeakSet[SupervisedPool]" = weakref.WeakSet()


def _inherited_state(num_workers: int) -> tuple:
    """What a pool's workers took from this process at their fork.

    The fault plan compares by identity: a new plan object needs workers
    that hold it, even if it lists the same specs. The backend registry
    compares by its ``(name, factory)`` items, so a factory registered
    over an existing name counts, and holding the factories keeps their
    identities from being reused.
    """
    return (
        num_workers,
        faults.active_plan(),
        tuple(sorted(registry._REGISTRY.items())),
        schedule._SCHEDULE_CACHE_ENABLED,
    )


def _drop_shared() -> None:
    """Forget the shared pool and close it."""
    global _shared, _shared_state
    pool, _shared, _shared_state = _shared, None, None
    if pool is not None:
        pool.close()


@contextmanager
def shared_pool(num_workers: int, retry: RetryPolicy | None = None):
    """Hold the process's live pool, at most ``num_workers`` wide, for
    one run.

    The pool forks workers as runs need them and is then reused. A new
    one replaces it when any state its workers inherited at the fork has
    changed: the width, the installed fault plan, the registered
    backends or the schedule-cache switch. A forked child starts without
    one. ``retry`` is parent-side supervision, so it is set per run and
    never forces a fork. Any exception escaping the block closes and
    drops the pool, so the next run starts from fresh workers.
    """
    global _shared, _shared_state
    with _shared_lock:
        state = _inherited_state(num_workers)
        if _shared is not None and _shared_state != state:
            _drop_shared()
        if _shared is None:
            _shared, _shared_state = SupervisedPool(num_workers), state
        _shared.retry = retry or RetryPolicy()
        try:
            yield _shared
        except BaseException:
            _drop_shared()
            raise


def close_shared_pool() -> None:
    """Close the process's shared pool, if any (idempotent; also run
    at interpreter exit)."""
    with _shared_lock:
        _drop_shared()


def _forget_pools_in_child() -> None:
    global _shared, _shared_state, _shared_lock
    # A fork taken while another thread held the lock must not leave the
    # child a lock nobody will release.
    _shared_lock = threading.Lock()
    pools = list(_pools)  # before _shared's reference goes
    _shared = _shared_state = None
    for pool in pools:
        pool._forget()
    _pools.clear()


atexit.register(close_shared_pool)
os.register_at_fork(after_in_child=_forget_pools_in_child)
