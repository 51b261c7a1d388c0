"""Supervised process pool for campaign sweeps.

The PR-6 executor sharded grid batches over a bare
``ProcessPoolExecutor`` — one segfaulting worker, one hung batch, and
the whole campaign (and every priced point) died with it. This module
replaces it with the supervision loop a batch scheduler would run:

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
(context = completed-batch count; the kill-then-resume tests crash the
*campaign* there, with every completed batch already persisted).
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing import connection

from ..errors import CampaignCancelled, DSEError
from ..testing import faults
from .cache import ResultCache, cache_key
from .tiers import evaluate_point

#: Graceful close: seconds a worker gets to acknowledge ``("close",)``
#: before join escalates to ``terminate()`` and then ``kill()``.
_JOIN_TIMEOUT = 5.0
_ESCALATION_TIMEOUT = 1.0

#: Ceiling on one supervision wait so cancel events stay responsive
#: even with no deadline armed.
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


@dataclass
class _Attempt:
    """One (re)dispatch of a batch of ``(index, point)`` items."""

    batch_id: int
    items: list
    attempt: int = 0
    ready_at: float = 0.0


def evaluate_one(index: int, point, tier: str, options: dict):
    """Price one point (the shared per-point seam of the pool worker and
    the executor's in-process promoted-tier path)."""
    faults.trip("dse.point", context=index)
    return evaluate_point(point, tier, **options)


def _pool_worker(channel, cache_dir, inherited_fds=()) -> None:
    """Worker main loop: price batches, report per-point outcomes.

    Every point is priced under ``try/except``: a deterministic
    evaluation error becomes a structured ``("error", message)`` entry
    instead of killing the worker, so only genuine process faults
    (crash, hang, kill) ever cost the supervisor a retry. The batch's
    successful results are persisted to the shared cache directory as
    one segment before the reply, so a parent crash after this batch
    loses nothing.

    ``inherited_fds`` are the parent-side pipe ends this fork-started
    worker inherited copies of — its own channel's parent end and those
    of its siblings. They MUST be closed here: a worker holding a copy
    of its own parent end would never see EOF after a parent crash
    (``os._exit``, SIGKILL) and would orphan forever instead of
    exiting.
    """
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    cache = ResultCache(cache_dir) if cache_dir is not None else None
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
        _, batch_id, tier, items, options = msg
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
                priced.append((cache_key(point, tier), result))
                entries.append((index, "ok", result))
        if cache is not None and priced:
            cache.put_many(priced)
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
    cache_dir:
        Shared on-disk cache directory workers persist results to
        (``None`` disables worker-side persistence).
    retry:
        The :class:`RetryPolicy`; defaults to the module default.
    """

    def __init__(
        self,
        num_workers: int,
        *,
        cache_dir=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if num_workers < 1:
            raise DSEError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.retry = retry or RetryPolicy()
        self.stats = PoolStats()
        self._workers: list = []
        self._channels: list = []
        import multiprocessing

        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()

    # -- lifecycle -----------------------------------------------------------

    @property
    def pool_active(self) -> bool:
        return bool(self._workers)

    def worker_pids(self) -> list[int]:
        return [proc.pid for proc in self._workers if proc is not None]

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, *, force: bool = False) -> None:
        """Tear the pool down; ``force`` skips the graceful handshake
        and kills immediately (the cancellation path)."""
        workers, self._workers = self._workers, []
        channels, self._channels = self._channels, []
        if not force:
            for chan in channels:
                if chan is None:
                    continue
                try:
                    chan.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
        for proc in workers:
            if proc is None:
                continue
            if force:
                proc.kill()
                proc.join()
            else:
                _reap(proc)
        for chan in channels:
            if chan is not None:
                chan.close()

    def _spawn(self, slot: int) -> None:
        parent_end, child_end = self._ctx.Pipe()
        inherited = [
            chan.fileno() for chan in self._channels if chan is not None
        ] + [parent_end.fileno()]
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(child_end, self.cache_dir, inherited),
            daemon=True,
            name=f"dse-pool-{slot}",
        )
        proc.start()
        child_end.close()
        self._workers[slot] = proc
        self._channels[slot] = parent_end

    def _ensure(self) -> None:
        if not self._workers:
            self._workers = [None] * self.num_workers
            self._channels = [None] * self.num_workers
            for slot in range(self.num_workers):
                self._spawn(slot)

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
        cancel=None,
    ):
        """Price every ``(index, point)`` item of every batch.

        Returns ``(results, failures)``: ``results`` maps point index to
        its :class:`~repro.dse.tiers.PointResult`; ``failures`` maps
        point index to ``(point, error_message)`` for quarantined
        points. ``cancel`` is a ``threading.Event``; once set the pool
        is force-closed and :class:`~repro.errors.CampaignCancelled` is
        raised.
        """
        options = options or {}
        self._ensure()
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
        idle = list(range(self.num_workers))

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
            if cancel is not None and cancel.is_set():
                self.close(force=True)
                raise CampaignCancelled("campaign cancelled")
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
                            ("run", att.batch_id, tier, att.items, options)
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
                entries = msg[2]
                for index, status, payload in entries:
                    if status == "ok":
                        results[index] = payload
                    else:
                        failures[index] = (points_by_index[index], payload)
                        self.stats.quarantined += 1
                faults.trip("dse.batch", context=self.stats.completed)
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
