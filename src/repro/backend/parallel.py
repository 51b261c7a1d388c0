"""Parallel kernel backends: shard element batches across host cores.

The multi-CU co-simulation already proved the scaling recipe at the
hardware level: split the element stream into balanced shards
(:func:`repro.mesh.partition.partition_elements_balanced`), run the same
kernels on every shard, and reduce the scatter partials. These backends
apply the identical recipe to the host CPU — the Sec. 4B "CPU baseline"
side of the paper's comparison, and the software analogue of the
spectral-element batched sharding the FPGA flow solvers use per compute
unit:

- ``"threaded"`` (:class:`ThreadedBackend`) — a thread pool over element
  shards. No pickling, no copies: every worker thread runs the
  ``"fast"`` kernels on a contiguous slice of the input arrays and
  writes into a disjoint slice of a shared output array. The heavy
  kernels (the tensor-product GEMMs and metric contractions) release
  the GIL inside BLAS, so threads scale on real cores.
- ``"procs"`` (:class:`ProcsBackend`) — a persistent pool of worker
  *processes* communicating through
  :class:`multiprocessing.shared_memory.SharedMemory`. Field inputs and
  outputs travel through two reusable shared-memory arenas, the
  connectivity is staged into its own shared segment once per array,
  and geometry/reference-element objects are shipped once and cached in
  the workers — so the steady state sends only a tiny job descriptor
  per call and the workers are reused across calls (and across RK
  stages and time steps).

Determinism contract (asserted by ``tests/backend/``): results are
**bitwise identical run-to-run** — shard boundaries depend only on
``(num_elements, num_workers)``, every shard computes exactly what the
``"fast"`` backend computes on that slice, and the scatter partials are
reduced in fixed shard order — and match the ``"reference"`` oracle to
<= 1e-12 relative on every kernel and on the full right-hand side.

Pool lifecycle:

- **lazy spawn** — no thread or process exists until the first kernel
  call that actually shards;
- **idempotent** :meth:`close` — safe to call repeatedly; the next
  kernel call respawns the pool;
- **fork-safety guard** — a backend that crosses a ``fork()`` (e.g.
  into a :func:`repro.dse.run_campaign` pool worker) detects the pid
  change, silently drops the inherited (unusable) pool handles without
  touching the parent's workers or shared segments, and lazily respawns
  its own pool in the child;
- ``num_workers == 1`` (e.g. ``REPRO_NUM_WORKERS=1``) **degenerates to
  the** ``"fast"`` **backend**: every call is delegated serially and no
  pool is ever spawned.

Worker count resolution: explicit ``num_workers`` argument >
``REPRO_NUM_WORKERS`` environment variable > the machine's CPU count
(:func:`repro.backend.registry.resolve_num_workers`).

Graceful degradation (``"procs"``): a worker that dies mid-call (OOM
kill, segfault, ``os._exit``) is detected from its pipe, the pool is
respawned (staged connectivity / geometry replayed to the fresh
workers) and the affected call retried up to :data:`_MAX_SHARD_RETRIES`
times; if the pool keeps dying the call **falls back to the serial**
``"fast"`` **path with a** :class:`RuntimeWarning` instead of raising —
a numerically identical answer, minus the parallelism. Teardown
escalates: ``join(_JOIN_TIMEOUT)``, then ``terminate()``, then
``kill()`` + final join, so a wedged worker can never hang interpreter
exit.
"""

from __future__ import annotations

import os
import pickle
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import BackendError, FEMError
from ..fem.geometry import ElementGeometry
from ..fem.reference import ReferenceHex
from ..mesh.partition import partition_elements_balanced
from ..testing import faults
from .base import KernelBackend
from .fast import FastBackend
from .registry import resolve_num_workers

#: Cached object registries (geometry / connectivity) are LRU-capped so
#: streaming co-simulation (a fresh block view per token) cannot grow
#: worker memory without bound.
_OBJECT_CACHE_LIMIT = 64

#: Respawn-and-retry budget of one sharded procs call before it
#: degrades to the serial path.
_MAX_SHARD_RETRIES = 2

#: Graceful-close patience before join escalates to ``terminate()``
#: (then ``kill()`` after :data:`_ESCALATION_TIMEOUT` more). Module
#: level so the teardown tests can shrink them.
_JOIN_TIMEOUT = 5.0
_ESCALATION_TIMEOUT = 1.0


class _WorkerDied(BackendError):
    """Internal: a procs worker vanished mid-conversation (EOF / broken
    pipe) — retry material, unlike a worker-*reported* error."""


def _reap(proc) -> None:
    """Join with escalation: join -> terminate -> kill -> final join."""
    proc.join(_JOIN_TIMEOUT)
    if proc.is_alive():
        proc.terminate()
        proc.join(_ESCALATION_TIMEOUT)
    if proc.is_alive():
        proc.kill()
        proc.join()


def element_shards(num_elements: int, num_workers: int) -> list[slice]:
    """Contiguous per-worker element ranges.

    The exact balanced split the multi-CU co-simulation uses
    (:func:`~repro.mesh.partition.partition_elements_balanced`); empty
    shards are dropped, so at most ``min(num_workers, num_elements)``
    slices come back. Shard boundaries depend only on the two arguments
    — the root of the backends' run-to-run determinism.
    """
    if num_elements <= 0:
        return []
    parts = partition_elements_balanced(
        num_elements, min(num_workers, num_elements)
    )
    return [slice(int(p[0]), int(p[-1]) + 1) for p in parts if p.size]


def _scatter_partial(
    values: np.ndarray, conn_shard: np.ndarray, num_nodes: int, acc_dtype
) -> np.ndarray:
    """Partial scatter of one element shard, ``(num_nodes,)``.

    ``acc_dtype`` is the accumulation dtype of the owning backend's
    precision policy (always float64 for float64 inputs). Float64
    partials let the parent reduce in shard order and round to the input
    dtype exactly once — the "accumulate in f64, cast at the end"
    semantics of :func:`repro.fem.assembly.scatter_add`. Float32 partials
    (the device-faithful ``"float32"`` mode) sum with the unbuffered
    ``np.add.at`` in element order instead, so the reduction is still
    bitwise-deterministic, just in native precision.
    """
    acc = np.dtype(acc_dtype)
    if acc == np.float64:
        flat_val = np.ascontiguousarray(values, dtype=np.float64).ravel()
        return np.bincount(
            conn_shard.ravel(), weights=flat_val, minlength=num_nodes
        )
    part = np.zeros(num_nodes, dtype=acc)
    np.add.at(part, conn_shard, values)
    return part


def _scatter_many_partial(
    values: np.ndarray, conn_shard: np.ndarray, num_nodes: int, acc_dtype
) -> np.ndarray:
    """Stacked-field partial scatter, ``(F, num_nodes)`` in ``acc_dtype``."""
    out = np.empty((values.shape[0], num_nodes), dtype=acc_dtype)
    for f_idx in range(values.shape[0]):
        out[f_idx] = _scatter_partial(
            values[f_idx], conn_shard, num_nodes, acc_dtype
        )
    return out


def _apply_shard(
    local: FastBackend,
    kernel: str,
    sl: slice,
    inp: np.ndarray,
    conn_shard: np.ndarray | None,
    geom: ElementGeometry | None,
    ref: ReferenceHex | None,
    num_nodes: int | None,
    out: np.ndarray,
    partial_row: int | None = None,
) -> None:
    """Run one kernel on one element shard, writing into ``out``.

    Shared by both pools: the threaded backend calls it on the caller's
    arrays directly; the process workers call it on their shared-memory
    views. Elementwise kernels write the shard's disjoint slice of the
    full output; the scatter kernels write a partial row whose dtype
    (``out.dtype``, allocated by the parent from its precision policy)
    selects the accumulation precision — no extra protocol field needed.
    """
    if kernel == "gather":
        out[..., sl, :] = local.gather(inp, conn_shard)
    elif kernel == "reference_gradient":
        out[sl] = local.reference_gradient(inp[sl], ref)
    elif kernel == "physical_gradient":
        out[sl] = local.physical_gradient(inp[sl], geom.block_view(sl), ref)
    elif kernel == "physical_gradient_many":
        out[:, sl] = local.physical_gradient_many(
            inp[:, sl], geom.block_view(sl), ref
        )
    elif kernel == "weak_divergence":
        out[sl] = local.weak_divergence(inp[sl], geom.block_view(sl), ref)
    elif kernel == "weak_divergence_many":
        out[:, sl] = local.weak_divergence_many(
            inp[:, sl], geom.block_view(sl), ref
        )
    elif kernel == "scatter_add":
        out[partial_row] = _scatter_partial(
            inp[sl], conn_shard, num_nodes, out.dtype
        )
    elif kernel == "scatter_add_many":
        out[partial_row] = _scatter_many_partial(
            inp[:, sl], conn_shard, num_nodes, out.dtype
        )
    else:  # pragma: no cover - internal protocol
        raise BackendError(f"unknown sharded kernel {kernel!r}")


class _ShardedBackend(KernelBackend):
    """Shared sharding/validation/reduction logic of the two pools.

    Subclasses implement :meth:`_run_shards` (execute every shard job,
    one per worker) and the lifecycle hooks. All public kernels:

    1. validate shapes (mirroring the ``"fast"`` checks, so errors do
       not surface from inside a worker),
    2. fall back to the serial ``"fast"`` instance when only one shard
       would exist (``num_workers == 1`` or a 1-element input),
    3. otherwise shard the element axis, run, and reduce.
    """

    def __init__(self, num_workers: int | None = None, precision=None) -> None:
        super().__init__(precision)
        self.num_workers = resolve_num_workers(num_workers)
        self._serial = FastBackend(precision=self.precision)
        self._owner_pid: int | None = None
        self._finalize_pid: int | None = None

    def _register_atexit(self) -> None:
        """Close the pool at process exit if the owner never did.

        Matters most for forked children (e.g. DSE pool workers) that
        lazily respawned a pool and exit without an explicit ``close()``
        — without this their shared segments would outlive the process.
        :class:`multiprocessing.util.Finalize` (unlike plain ``atexit``)
        also runs in multiprocessing children, which skip the atexit
        machinery on exit. The registration is per-pid because children
        clear the inherited finalizer registry on bootstrap. ``close()``
        is idempotent and pid-guarded, so the hook is safe anywhere.
        """
        if self._finalize_pid != os.getpid():
            from multiprocessing.util import Finalize

            Finalize(self, type(self).close, args=(self,), exitpriority=10)
            self._finalize_pid = os.getpid()

    # -- lifecycle (subclass hooks) -----------------------------------------

    @property
    def pool_active(self) -> bool:
        """Whether worker threads/processes currently exist."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the pool down; idempotent, and the next call respawns."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def _guard_fork(self) -> None:
        """Drop pool handles inherited across a ``fork()``.

        A forked child (e.g. a ``run_campaign(workers=N)`` pool worker)
        inherits this object with the parent's thread/process handles,
        which are dead or — worse — alive but owned by the parent. The
        guard detects the pid change and resets to the unspawned state
        WITHOUT signalling the parent's workers or unlinking its shared
        segments; the child lazily respawns its own pool if it ever
        shards.
        """
        if self._owner_pid is not None and self._owner_pid != os.getpid():
            self._drop_inherited()
            self._owner_pid = None

    def _drop_inherited(self) -> None:
        raise NotImplementedError

    def _run_shards(self, jobs: list[dict]) -> None:
        """Execute one job per shard; jobs are the kwargs of
        :func:`_apply_shard` minus ``local``."""
        raise NotImplementedError

    # -- sharding plumbing ---------------------------------------------------

    def _shards_for(self, num_elements: int) -> list[slice]:
        return element_shards(num_elements, self.num_workers)

    def _sharded(
        self,
        kernel: str,
        num_elements: int,
        inp: np.ndarray,
        conn: np.ndarray | None,
        geom: ElementGeometry | None,
        ref: ReferenceHex | None,
        num_nodes: int | None,
        out_shape: tuple[int, ...],
        out_dtype,
        reduce_dtype=None,
    ) -> np.ndarray:
        """Shard one kernel call; returns the assembled result.

        For the scatter kernels ``out_shape`` is the per-shard partial
        shape (without the leading shard axis) and ``reduce_dtype`` is
        the dtype the ordered reduction is cast back to.
        """
        self._guard_fork()
        shards = self._shards_for(num_elements)
        scatter = kernel.startswith("scatter_add")
        full_shape = (
            ((len(shards),) + out_shape) if scatter else out_shape
        )
        out = self._allocate_output(full_shape, out_dtype)
        jobs = [
            {
                "kernel": kernel,
                "sl": sl,
                "inp": inp,
                "conn": conn,
                "geom": geom,
                "ref": ref,
                "num_nodes": num_nodes,
                "out": out,
                "partial_row": row if scatter else None,
            }
            for row, sl in enumerate(shards)
        ]
        self._run_shards(jobs)
        result = self._collect_output(out)
        if not scatter:
            return result
        # Deterministic reduction: partials summed in fixed shard order
        # in the policy's accumulate dtype, rounded to the input dtype
        # exactly once (a no-op when the two coincide).
        total = result[0].copy()
        for row in range(1, result.shape[0]):
            total += result[row]
        if reduce_dtype is not None and total.dtype != reduce_dtype:
            total = total.astype(reduce_dtype)
        return total

    def _allocate_output(self, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def _collect_output(self, out: np.ndarray) -> np.ndarray:
        return out

    # -- the five kernels (plus batched forms) -------------------------------

    def gather(self, global_field: np.ndarray, connectivity: np.ndarray) -> np.ndarray:
        global_field = np.asarray(global_field)
        if global_field.ndim not in (1, 2):
            raise FEMError(
                f"global_field must be 1D or 2D, got shape {global_field.shape}"
            )
        num_elements = int(connectivity.shape[0])
        if len(self._shards_for(num_elements)) < 2:
            return self._serial.gather(global_field, connectivity)
        out_shape = global_field.shape[:-1] + connectivity.shape
        return self._sharded(
            "gather",
            num_elements,
            global_field,
            connectivity,
            None,
            None,
            None,
            out_shape,
            global_field.dtype,
        )

    def scatter_add(
        self, element_values: np.ndarray, connectivity: np.ndarray, num_nodes: int
    ) -> np.ndarray:
        element_values = np.asarray(element_values)
        if element_values.shape != connectivity.shape:
            raise FEMError(
                "element_values and connectivity shapes differ: "
                f"{element_values.shape} vs {connectivity.shape}"
            )
        num_elements = int(connectivity.shape[0])
        if len(self._shards_for(num_elements)) < 2:
            return self._serial.scatter_add(
                element_values, connectivity, num_nodes
            )
        return self._sharded(
            "scatter_add",
            num_elements,
            element_values,
            connectivity,
            None,
            None,
            num_nodes,
            (num_nodes,),
            self.accumulate_dtype(element_values.dtype),
            reduce_dtype=element_values.dtype,
        )

    def scatter_add_many(
        self, element_values: np.ndarray, connectivity: np.ndarray, num_nodes: int
    ) -> np.ndarray:
        element_values = np.asarray(element_values)
        if element_values.ndim != 3:
            raise FEMError(
                f"element_values must be (F, E, Q), got {element_values.shape}"
            )
        if element_values.shape[1:] != connectivity.shape:
            raise FEMError(
                "element_values and connectivity shapes differ: "
                f"{element_values.shape[1:]} vs {connectivity.shape}"
            )
        num_elements = int(connectivity.shape[0])
        if len(self._shards_for(num_elements)) < 2:
            return self._serial.scatter_add_many(
                element_values, connectivity, num_nodes
            )
        return self._sharded(
            "scatter_add_many",
            num_elements,
            element_values,
            connectivity,
            None,
            None,
            num_nodes,
            (element_values.shape[0], num_nodes),
            self.accumulate_dtype(element_values.dtype),
            reduce_dtype=element_values.dtype,
        )

    def reference_gradient(self, field: np.ndarray, ref: ReferenceHex) -> np.ndarray:
        field = np.asarray(field)
        n1 = ref.n1
        if field.ndim != 2 or field.shape[1] != n1**3:
            raise FEMError(f"field must be (E, {n1 ** 3}), got {field.shape}")
        num_elements = field.shape[0]
        if len(self._shards_for(num_elements)) < 2:
            return self._serial.reference_gradient(field, ref)
        return self._sharded(
            "reference_gradient",
            num_elements,
            field,
            None,
            None,
            ref,
            None,
            (num_elements, 3, field.shape[1]),
            field.dtype,
        )

    def physical_gradient(
        self, field: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        field = np.asarray(field)
        n1 = ref.n1
        if field.ndim != 2 or field.shape[1] != n1**3:
            raise FEMError(f"field must be (E, {n1 ** 3}), got {field.shape}")
        num_elements = field.shape[0]
        if len(self._shards_for(num_elements)) < 2:
            return self._serial.physical_gradient(field, geom, ref)
        return self._sharded(
            "physical_gradient",
            num_elements,
            field,
            None,
            geom,
            ref,
            None,
            field.shape + (3,),
            field.dtype,
        )

    def physical_gradient_many(
        self, fields: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        fields = np.asarray(fields)
        if fields.ndim != 3:
            raise FEMError(f"fields must be (F, E, Q), got {fields.shape}")
        num_elements = fields.shape[1]
        if len(self._shards_for(num_elements)) < 2:
            return self._serial.physical_gradient_many(fields, geom, ref)
        return self._sharded(
            "physical_gradient_many",
            num_elements,
            fields,
            None,
            geom,
            ref,
            None,
            fields.shape + (3,),
            fields.dtype,
        )

    def weak_divergence(
        self, flux: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        flux = np.asarray(flux)
        n1 = ref.n1
        if flux.ndim != 3 or flux.shape[1:] != (n1**3, 3):
            raise FEMError(f"flux must be (E, {n1 ** 3}, 3), got {flux.shape}")
        num_elements = flux.shape[0]
        if len(self._shards_for(num_elements)) < 2:
            return self._serial.weak_divergence(flux, geom, ref)
        return self._sharded(
            "weak_divergence",
            num_elements,
            flux,
            None,
            geom,
            ref,
            None,
            flux.shape[:-1],
            flux.dtype,
        )

    def weak_divergence_many(
        self, fluxes: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        fluxes = np.asarray(fluxes)
        n1 = ref.n1
        if fluxes.ndim != 4 or fluxes.shape[2:] != (n1**3, 3):
            raise FEMError(
                f"fluxes must be (F, E, {n1 ** 3}, 3), got {fluxes.shape}"
            )
        num_elements = fluxes.shape[1]
        if len(self._shards_for(num_elements)) < 2:
            return self._serial.weak_divergence_many(fluxes, geom, ref)
        return self._sharded(
            "weak_divergence_many",
            num_elements,
            fluxes,
            None,
            geom,
            ref,
            None,
            fluxes.shape[:-1],
            fluxes.dtype,
        )


# ---------------------------------------------------------------------------
# "threaded": thread pool, shared arrays, zero copies
# ---------------------------------------------------------------------------


class ThreadedBackend(_ShardedBackend):
    """Thread pool over element shards — no pickling, shared outputs.

    Each shard index owns a private :class:`~repro.backend.fast.FastBackend`
    instance, so the reused einsum-path/workspace caches never race and
    stay warm across calls (shard shapes are stable for a given mesh).
    Output arrays are shared: every shard writes a disjoint slice.
    """

    name = "threaded"

    def __init__(self, num_workers: int | None = None, precision=None) -> None:
        super().__init__(num_workers, precision)
        self._pool: ThreadPoolExecutor | None = None
        self._locals: list[FastBackend] = []
        # Connectivity shard views cached per array identity so the fast
        # backend's fused-scatter-index cache hits across calls.
        self._conn_shards: OrderedDict[int, tuple] = OrderedDict()

    @property
    def pool_active(self) -> bool:
        return self._pool is not None and self._owner_pid == os.getpid()

    def close(self) -> None:
        pool, self._pool = self._pool, None
        owner = self._owner_pid == os.getpid()
        self._owner_pid = None
        self._locals = []
        self._conn_shards.clear()
        if pool is not None and owner:
            pool.shutdown(wait=True)

    def _drop_inherited(self) -> None:
        # Threads do not survive fork; just forget the dead executor.
        self._pool = None
        self._locals = []
        self._conn_shards.clear()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        self._guard_fork()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="repro-backend",
            )
            self._locals = [
                FastBackend(precision=self.precision)
                for _ in range(self.num_workers)
            ]
            self._owner_pid = os.getpid()
            self._register_atexit()
        return self._pool

    def _conn_shard(self, conn: np.ndarray, sl: slice) -> np.ndarray:
        key = id(conn)
        entry = self._conn_shards.get(key)
        if entry is None or entry[0] is not conn:
            entry = (conn, {})
            self._conn_shards[key] = entry
            while len(self._conn_shards) > _OBJECT_CACHE_LIMIT:
                self._conn_shards.popitem(last=False)
        views = entry[1]
        bounds = (sl.start, sl.stop)
        if bounds not in views:
            views[bounds] = conn[sl]
        return views[bounds]

    def _run_shards(self, jobs: list[dict]) -> None:
        pool = self._ensure_pool()

        def run(index: int, job: dict) -> None:
            conn = job["conn"]
            _apply_shard(
                self._locals[index],
                job["kernel"],
                job["sl"],
                job["inp"],
                None if conn is None else self._conn_shard(conn, job["sl"]),
                job["geom"],
                job["ref"],
                job["num_nodes"],
                job["out"],
                job["partial_row"],
            )

        futures = [
            pool.submit(run, index, job) for index, job in enumerate(jobs)
        ]
        for future in futures:
            future.result()


# ---------------------------------------------------------------------------
# "procs": persistent shared-memory process pool
# ---------------------------------------------------------------------------


def _attach_view(segments: dict, name: str, shape, dtype) -> np.ndarray:
    """Worker-side numpy view over a (cached) shared-memory segment."""
    from multiprocessing import shared_memory

    shm = segments.get(name)
    if shm is None:
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: attaching force-registers the
            # segment with the resource tracker even though the parent owns
            # it, which mis-reports "leaked" memory at worker shutdown.
            # Suppress the registration for the duration of the attach (the
            # worker loop is single-threaded, so the patch cannot race).
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        segments[name] = shm
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


def _procs_worker(channel, inherited_fds=()) -> None:
    """Worker main loop: attach shared memory, run shard jobs, reply.

    The worker holds a private :class:`FastBackend` (warm caches across
    calls), a cache of shipped objects (geometry, reference elements,
    shared connectivity views), and its shared-memory attachments.

    ``inherited_fds`` are parent-side pipe ends this fork-started
    worker inherited copies of (its own channel's parent end and its
    siblings'); closing them here guarantees the worker sees EOF — and
    exits — if the parent dies without a graceful ``close``.
    """
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    local = FastBackend()
    objects: dict[str, object] = {}
    conn_shards: dict[tuple, np.ndarray] = {}
    segments: dict = {}
    run_ops = 0
    try:
        while True:
            try:
                msg = channel.recv()
            except EOFError:
                break
            op = msg[0]
            try:
                if op == "close":
                    # Teardown-escalation seam: a hang here wedges the
                    # graceful close handshake, forcing the parent's
                    # join -> terminate -> kill ladder.
                    faults.trip("procs.close")
                    channel.send(("ok", None))
                    break
                if op == "put":
                    objects[msg[1]] = pickle.loads(msg[2])
                    channel.send(("ok", None))
                elif op == "attach_array":
                    _, token, name, shape, dtype = msg
                    objects[token] = _attach_view(segments, name, shape, dtype)
                    channel.send(("ok", None))
                elif op == "forget":
                    objects.pop(msg[1], None)
                    for key in [k for k in conn_shards if k[0] == msg[1]]:
                        del conn_shards[key]
                    channel.send(("ok", None))
                elif op == "detach":
                    shm = segments.pop(msg[1], None)
                    if shm is not None:
                        shm.close()
                    channel.send(("ok", None))
                elif op == "run":
                    run_ops += 1
                    faults.trip("procs.worker", context=run_ops)
                    job = msg[1]
                    inp = _attach_view(segments, *job["inp"])
                    out = _attach_view(segments, *job["out"])
                    sl = slice(*job["shard"])
                    conn_shard = None
                    if job["conn"] is not None:
                        key = (job["conn"], job["shard"])
                        conn_shard = conn_shards.get(key)
                        if conn_shard is None:
                            conn_shard = objects[job["conn"]][sl]
                            conn_shards[key] = conn_shard
                    _apply_shard(
                        local,
                        job["kernel"],
                        sl,
                        inp,
                        conn_shard,
                        objects.get(job["geom"]),
                        objects.get(job["ref"]),
                        job["num_nodes"],
                        out,
                        job["partial_row"],
                    )
                    channel.send(("ok", None))
                else:
                    channel.send(("error", f"unknown op {op!r}"))
            except BaseException as exc:  # noqa: BLE001 - reported to parent
                channel.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        for shm in segments.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - teardown
                pass
        channel.close()


class _Arena:
    """A resizable parent-owned shared-memory block."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.shm = None

    def ensure(self, nbytes: int, on_replace) -> str:
        """Grow (geometrically) to hold ``nbytes``; returns the name.

        ``on_replace(old_name)`` runs before the old block is unlinked,
        so the parent can tell workers to detach first.
        """
        nbytes = max(int(nbytes), 1)
        if self.shm is not None and self.shm.size >= nbytes:
            return self.shm.name
        from multiprocessing import shared_memory

        if self.shm is not None:
            on_replace(self.shm.name)
            self.shm.close()
            self.shm.unlink()
            nbytes = max(nbytes, 2 * self.shm.size)
        self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
        return self.shm.name

    def view(self, shape, dtype) -> np.ndarray:
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=self.shm.buf)

    def destroy(self) -> None:
        if self.shm is not None:
            try:
                self.shm.close()
                self.shm.unlink()
            except Exception:  # pragma: no cover - teardown
                pass
            self.shm = None


class ProcsBackend(_ShardedBackend):
    """Persistent shared-memory multiprocessing pool over element shards.

    Steady-state cost per kernel call: one ``memcpy`` of the input
    fields into the input arena, a tiny pickled job descriptor per
    worker, the sharded compute, and one ``memcpy`` out of the output
    arena — connectivity lives in its own shared segment (staged once
    per array) and geometry/reference objects are shipped once and
    cached worker-side, so nothing large is pickled per call.
    """

    name = "procs"

    def __init__(self, num_workers: int | None = None, precision=None) -> None:
        super().__init__(num_workers, precision)
        self._workers: list = []
        self._channels: list = []
        self._input = _Arena("in")
        self._output = _Arena("out")
        # id(obj) -> (obj, token); strong refs keep ids stable.
        self._objects: OrderedDict[int, tuple] = OrderedDict()
        self._shared_arrays: OrderedDict[int, tuple] = OrderedDict()
        self._token_counter = 0
        #: Pool respawns after a mid-call worker death (cumulative).
        self.respawns = 0
        #: Sharded calls that degraded to the serial path (cumulative).
        self.serial_fallbacks = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def pool_active(self) -> bool:
        return bool(self._workers) and self._owner_pid == os.getpid()

    def worker_pids(self) -> list[int]:
        """Pids of the live worker processes (empty when unspawned)."""
        if not self.pool_active:
            return []
        return [proc.pid for proc in self._workers]

    def close(self) -> None:
        if self._owner_pid != os.getpid():
            # Forked copy: the pool and segments belong to the parent.
            self._drop_inherited()
            self._owner_pid = None
            return
        for channel in self._channels:
            try:
                channel.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._workers:
            # join -> terminate -> kill: a wedged worker (even one
            # ignoring SIGTERM) can never hang interpreter exit.
            _reap(proc)
        for channel in self._channels:
            channel.close()
        self._workers = []
        self._channels = []
        self._owner_pid = None
        self._input.destroy()
        self._output.destroy()
        for _obj, _token, shm in self._shared_arrays.values():
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - teardown
                pass
        self._shared_arrays.clear()
        self._objects.clear()

    def _drop_inherited(self) -> None:
        # NO close/unlink: the handles and segments are the parent's.
        self._workers = []
        self._channels = []
        self._input = _Arena("in")
        self._output = _Arena("out")
        self._objects.clear()
        self._shared_arrays.clear()

    def _ensure_pool(self) -> None:
        self._guard_fork()
        if self._workers:
            if all(proc.is_alive() for proc in self._workers):
                return
            # A worker died between calls (OOM kill, crash): rebuild the
            # whole pool before dispatching onto a dead pipe.
            self._respawn_workers()
            return
        self._spawn_workers()
        self._owner_pid = os.getpid()
        self._register_atexit()

    def _spawn_workers(self) -> None:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        for _ in range(self.num_workers):
            parent_end, child_end = ctx.Pipe()
            inherited = [chan.fileno() for chan in self._channels] + [
                parent_end.fileno()
            ]
            proc = ctx.Process(
                target=_procs_worker,
                args=(child_end, inherited),
                daemon=True,
            )
            proc.start()
            child_end.close()
            self._workers.append(proc)
            self._channels.append(parent_end)

    def _respawn_workers(self) -> None:
        """Replace the whole fleet after a worker death and replay the
        staged state (shipped objects, shared connectivity segments) so
        the fresh workers resolve every token the next job references.

        The shared-memory segments themselves are parent-owned and
        survive; only the worker-side caches need rebuilding.
        """
        workers, self._workers = self._workers, []
        channels, self._channels = self._channels, []
        for proc in workers:
            if proc.is_alive():
                proc.kill()
            proc.join()
        for channel in channels:
            channel.close()
        self._spawn_workers()
        self.respawns += 1
        for _obj, token in list(self._objects.values()):
            self._broadcast(("put", token, pickle.dumps(_obj, protocol=-1)))
        for array, token, shm in list(self._shared_arrays.values()):
            self._broadcast(
                ("attach_array", token, shm.name, array.shape, array.dtype.str)
            )

    # -- worker messaging ----------------------------------------------------

    def _broadcast(self, msg: tuple) -> None:
        for channel in self._channels:
            try:
                channel.send(msg)
            except (BrokenPipeError, OSError) as exc:
                raise _WorkerDied(
                    f"procs backend worker died mid-broadcast: {exc}"
                ) from None
        for channel in self._channels:
            self._await_ok(channel)

    @staticmethod
    def _await_ok(channel) -> None:
        try:
            status, detail = channel.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerDied(
                f"procs backend worker died mid-call: {exc!r}"
            ) from None
        if status != "ok":
            raise BackendError(f"procs backend worker failed: {detail}")

    def _next_token(self, prefix: str) -> str:
        self._token_counter += 1
        return f"{prefix}{self._token_counter}"

    def _put_object(self, obj) -> str | None:
        """Ship an object (geometry / reference element) once; returns
        its worker-cache token."""
        if obj is None:
            return None
        key = id(obj)
        entry = self._objects.get(key)
        if entry is not None and entry[0] is obj:
            self._objects.move_to_end(key)
            return entry[1]
        token = self._next_token("obj")
        self._broadcast(("put", token, pickle.dumps(obj, protocol=-1)))
        self._objects[key] = (obj, token)
        while len(self._objects) > _OBJECT_CACHE_LIMIT:
            _, (_stale, stale_token) = self._objects.popitem(last=False)
            self._broadcast(("forget", stale_token))
        return token

    def _share_array(self, array: np.ndarray) -> str:
        """Stage an array (the connectivity) into its own shared segment
        once per array identity; returns its worker-cache token."""
        key = id(array)
        entry = self._shared_arrays.get(key)
        if entry is not None and entry[0] is array:
            self._shared_arrays.move_to_end(key)
            return entry[1]
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        np.copyto(view, array)
        token = self._next_token("arr")
        self._broadcast(
            ("attach_array", token, shm.name, array.shape, array.dtype.str)
        )
        self._shared_arrays[key] = (array, token, shm)
        while len(self._shared_arrays) > _OBJECT_CACHE_LIMIT:
            _, (_stale, stale_token, stale_shm) = self._shared_arrays.popitem(
                last=False
            )
            self._broadcast(("forget", stale_token))
            self._broadcast(("detach", stale_shm.name))
            stale_shm.close()
            stale_shm.unlink()
        return token

    # -- sharded execution ---------------------------------------------------

    def _allocate_output(self, shape, dtype) -> np.ndarray:
        self._ensure_pool()
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        name = self._output.ensure(
            nbytes, lambda old: self._broadcast(("detach", old))
        )
        self._out_name = name
        return self._output.view(shape, dtype)

    def _collect_output(self, out: np.ndarray) -> np.ndarray:
        # Copy out of the arena: the arena is reused by the next call.
        return np.array(out)

    def _run_shards(self, jobs: list[dict]) -> None:
        """Dispatch with supervision: a mid-call worker death triggers a
        bounded respawn-and-retry of the whole call, then degradation to
        the serial ``"fast"`` path with a warning — never an exception
        for a *process* fault (worker-reported kernel errors still
        raise :class:`~repro.errors.BackendError`)."""
        attempts = 0
        while True:
            try:
                self._dispatch_shards(jobs)
                return
            except _WorkerDied as exc:
                attempts += 1
                if attempts > _MAX_SHARD_RETRIES:
                    self._degrade(jobs, str(exc))
                    return
                try:
                    self._respawn_workers()
                except _WorkerDied as respawn_exc:
                    self._degrade(jobs, str(respawn_exc))
                    return

    def _degrade(self, jobs: list[dict], reason: str) -> None:
        """Serial fallback: run every shard in-process on the ``"fast"``
        backend — numerically identical (same shards, same ordered
        reduction), just not parallel."""
        self.serial_fallbacks += 1
        warnings.warn(
            f"procs backend pool kept dying ({reason}); falling back to "
            "the serial fast path for this call",
            RuntimeWarning,
            stacklevel=4,
        )
        for job in jobs:
            conn = job["conn"]
            _apply_shard(
                self._serial,
                job["kernel"],
                job["sl"],
                job["inp"],
                None if conn is None else conn[job["sl"]],
                job["geom"],
                job["ref"],
                job["num_nodes"],
                job["out"],
                job["partial_row"],
            )

    def _dispatch_shards(self, jobs: list[dict]) -> None:
        inp = np.ascontiguousarray(jobs[0]["inp"])
        in_name = self._input.ensure(
            inp.nbytes, lambda old: self._broadcast(("detach", old))
        )
        np.copyto(self._input.view(inp.shape, inp.dtype), inp)
        conn = jobs[0]["conn"]
        conn_token = None if conn is None else self._share_array(conn)
        geom_token = self._put_object(jobs[0]["geom"])
        ref_token = self._put_object(jobs[0]["ref"])
        out = jobs[0]["out"]
        descriptor_base = {
            "inp": (in_name, inp.shape, inp.dtype.str),
            "out": (self._out_name, out.shape, out.dtype.str),
            "conn": conn_token,
            "geom": geom_token,
            "ref": ref_token,
        }
        for index, job in enumerate(jobs):
            try:
                self._channels[index].send(
                    (
                        "run",
                        {
                            **descriptor_base,
                            "kernel": job["kernel"],
                            "shard": (job["sl"].start, job["sl"].stop),
                            "num_nodes": job["num_nodes"],
                            "partial_row": job["partial_row"],
                        },
                    )
                )
            except (BrokenPipeError, OSError) as exc:
                raise _WorkerDied(
                    f"procs backend worker died at dispatch: {exc}"
                ) from None
        errors = []
        died: _WorkerDied | None = None
        for index in range(len(jobs)):
            try:
                self._await_ok(self._channels[index])
            except _WorkerDied as exc:
                # Keep draining the other channels (their workers may be
                # fine and mid-compute) before surfacing the death to
                # the retry loop.
                died = exc
            except BackendError as exc:
                errors.append(str(exc))
        if died is not None:
            raise died
        if errors:
            raise BackendError("; ".join(errors))
