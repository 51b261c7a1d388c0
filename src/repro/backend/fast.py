"""The ``"fast"`` backend: the same kernels, restructured for throughput.

This is the software analogue of the paper's dataflow restructuring: the
math is unchanged, but the execution schedule is reorganized around the
memory system. Each technique maps to an accelerator trick:

- **fixed-shape per-element GEMMs** — like a COMPUTE module that runs the
  same tensor-product contraction on every element, each derivative
  direction is one BLAS call of one fixed shape per (field, element):
  ``(n1^2, n1) @ (n1, n1)`` along xi, ``(n1, n1) @ (n1, n1^2)`` along
  zeta, and along eta ``(n1, n1^2) @ (n1^2, n1^2)`` against a Kronecker
  operator for ``n1 <= KRON_ETA_MAX_N1`` (``n1`` per-slab GEMMs above
  it, where its extra flops outweigh the saved calls). The affine metric
  is one ``(3, 3) @ (3, Q)`` GEMM per (field, element); the curved metric
  is elementwise arithmetic on ``(E, Q)`` planes;
- **no element folding** — elements are never folded into GEMM rows:
  with OpenBLAS a row's bits depend on the row count M, so a folded
  call would tie each element's result to its batch. Fixed shapes keep
  the blocked residual bitwise equal to the whole-mesh run, event and
  vectorized co-simulation bitwise equal, and ``verify`` parity exact
  (``tests/properties/test_backend_block_invariance.py``);
- **direction-major memory** — behind the unchanged ``(F, E, Q, 3)``
  shape contracts, ``physical_gradient_many`` returns (and the pipeline's
  ``single_pass_net_flux`` emits) views of ``(F, 3, E, Q)`` buffers: the
  pointwise physics streams contiguous planes, as the accelerator's
  on-chip buffers are laid out for streaming, and the metric GEMMs get
  row-strided ``(3, Q)`` operands;
- **preallocated workspaces** — internal temporaries (reference
  gradients, contravariant fluxes, divergence partial sums) live in
  buffers reused across calls — i.e. across RK stages and time steps —
  like the on-chip scratchpads of the LOAD/COMPUTE/STORE pipeline.
  Results are always freshly allocated and caller-owned;
- **batched many-field kernels** — ``physical_gradient_many`` runs over
  a fused ``(F*E)`` batch instead of a Python loop over fields, and
  ``scatter_add_many`` performs a single ``bincount`` over a fused
  ``(F*E*Q)`` index (precomputed per connectivity, like the
  accelerator's streamed index arrays).

Numerics match ``"reference"`` to rounding error: the parity suite
asserts agreement within 1e-10 relative on every kernel and on a full
RHS evaluation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import FEMError
from ..fem import assembly
from ..fem.geometry import ElementGeometry
from ..fem.reference import ReferenceHex
from .base import KernelBackend


#: Largest ``n1 = p + 1`` whose eta derivative is one GEMM per element
#: against the ``(n1^2, n1^2)`` Kronecker operator ``kron(D^T, I)``
#: rather than ``n1`` per-slab ``(n1, n1)`` GEMMs. It does ``n1`` times
#: the flops in one call, so it pays only while call overhead dominates.
#: A p=2..7 sweep of block-sized batches (512 KiB of f64 flux payload;
#: minimum of 300 calls, 2-core Xeon, OpenBLAS 0.3.31), Kronecker vs
#: per-slab, in microseconds:
#:
#: ====  ====  ===============  ===============
#: p     E     grad, B = 4E     div, B = 5E
#: ====  ====  ===============  ===============
#: 2     161   107 vs 152       147 vs 199
#: 3     68    54 vs 79         79 vs 115
#: 4     34    65 vs 63         91 vs 89
#: 5     20    51 vs 45         73 vs 64
#: 6     12    56 vs 41         82 vs 60
#: 7     8     49 vs 38         70 vs 53
#: ====  ====  ===============  ===============
KRON_ETA_MAX_N1 = 4


class _DiffOps(NamedTuple):
    """Per-(order, dtype) differentiation operators."""

    d: np.ndarray
    dt: np.ndarray
    neg_d: np.ndarray
    neg_dt: np.ndarray
    #: ``kron(D^T, I)`` (gradient) and ``-kron(D, I)`` (weak divergence)
    #: for the eta direction; ``None`` above :data:`KRON_ETA_MAX_N1`.
    kron_grad: np.ndarray | None
    neg_kron_div: np.ndarray | None


class FastBackend(KernelBackend):
    """Optimized numpy execution of the five hot kernels."""

    name = "fast"

    def __init__(self, precision=None) -> None:
        super().__init__(precision)
        # (tag, shape, dtype) -> reusable scratch array.
        self._workspace: dict[tuple, np.ndarray] = {}
        # (F, num_nodes, conn shape) -> (connectivity, fused flat index).
        self._scatter_index: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # (order, dtype) -> (source matrix, differentiation operators).
        self._diff_cache: dict[tuple, tuple[np.ndarray, _DiffOps]] = {}

    # -- plumbing ------------------------------------------------------------

    def _ws(self, tag: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Reusable scratch buffer for *internal* temporaries.

        Buffers are keyed by (tag, shape, dtype) and persist on the
        backend instance, so repeated kernel invocations — e.g. the four
        RK stages of every time step — reuse the same memory. They are
        never returned to callers.
        """
        key = (tag, shape, np.dtype(dtype).str)
        buf = self._workspace.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._workspace[key] = buf
        return buf

    def _diff_ops(self, ref: ReferenceHex, dtype) -> _DiffOps:
        """The 1D differentiation operators of ``ref``, cast to ``dtype``.

        Keyed by (polynomial order, dtype) with the source matrix
        identity checked, so a rebuilt ReferenceHex (same order,
        different nodes) never gets a stale cast. Float32 streams must
        contract against a float32 matrix: an f64 operand would silently
        upcast the GEMM, costing both the dtype guarantee and the
        bandwidth the accelerator's native precision buys.
        """
        key = (ref.order, np.dtype(dtype).str)
        entry = self._diff_cache.get(key)
        if entry is not None and entry[0] is ref.diff:
            return entry[1]
        d = np.ascontiguousarray(ref.diff, dtype=dtype)
        dt = np.ascontiguousarray(ref.diff.T, dtype=dtype)
        kron_grad = neg_kron_div = None
        if ref.n1 <= KRON_ETA_MAX_N1:
            eye = np.eye(ref.n1, dtype=dtype)
            kron_grad = np.kron(dt, eye)
            neg_kron_div = -np.kron(d, eye)
        ops = _DiffOps(d, dt, -d, -dt, kron_grad, neg_kron_div)
        self._diff_cache[key] = (ref.diff, ops)
        return ops

    # -- assembly (LOAD / STORE) -------------------------------------------

    def gather(self, global_field: np.ndarray, connectivity: np.ndarray) -> np.ndarray:
        global_field = np.asarray(global_field)
        if global_field.ndim not in (1, 2):
            raise FEMError(
                f"global_field must be 1D or 2D, got shape {global_field.shape}"
            )
        # np.take on the last axis is the fastest numpy gather.
        return np.take(global_field, connectivity, axis=-1)

    def scatter_add(
        self, element_values: np.ndarray, connectivity: np.ndarray, num_nodes: int
    ) -> np.ndarray:
        # The single-field scatter is already one reduction; delegate so
        # the semantics (validation, accumulate dtype, dtype restore)
        # have a single source of truth shared with the oracle.
        element_values = np.asarray(element_values)
        return assembly.scatter_add(
            element_values,
            connectivity,
            num_nodes,
            accumulate_dtype=self.accumulate_dtype(element_values.dtype),
        )

    def _fused_scatter_index(
        self, connectivity: np.ndarray, num_fields: int, num_nodes: int
    ) -> np.ndarray:
        """Flat ``(F*E*Q,)`` index mapping field f, element slot s to
        ``f * num_nodes + connectivity[s]`` — precomputed once per
        connectivity so every scatter is a single ``bincount``."""
        key = (num_fields, num_nodes, connectivity.shape)
        entry = self._scatter_index.get(key)
        if entry is not None and entry[0] is connectivity:
            return entry[1]
        flat = connectivity.ravel().astype(np.int64, copy=False)
        fused = (
            np.arange(num_fields, dtype=np.int64)[:, None] * num_nodes + flat[None, :]
        ).ravel()
        self._scatter_index[key] = (connectivity, fused)
        return fused

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
        num_fields = element_values.shape[0]
        fused = self._fused_scatter_index(connectivity, num_fields, num_nodes)
        acc = self.accumulate_dtype(element_values.dtype)
        if acc == np.float64:
            flat_val = np.ascontiguousarray(
                element_values, dtype=np.float64
            ).ravel()
            out = np.bincount(
                fused, weights=flat_val, minlength=num_fields * num_nodes
            ).reshape(num_fields, num_nodes)
        else:
            # Native-precision reduction: ufunc.at is unbuffered and
            # applies contributions in flat (field, element, node) order,
            # so per-node add sequences are identical to the per-field
            # oracle scatter — bitwise-reproducible across backends.
            out = np.zeros(num_fields * num_nodes, dtype=acc)
            np.add.at(out, fused, element_values.ravel())
            out = out.reshape(num_fields, num_nodes)
        if element_values.dtype != out.dtype:
            out = out.astype(element_values.dtype)
        return out

    # -- differentiation ----------------------------------------------------

    def _reference_gradient_batch(
        self, fields: np.ndarray, ref: ReferenceHex
    ) -> np.ndarray:
        """``(B, Q)`` -> ``(B, 3, Q)`` derivative batch in a workspace.

        One GEMM per element and direction against the 1D
        differentiation matrix (sum factorization), each of a fixed
        shape. The returned array is a workspace buffer: valid until the
        next call with the same batch shape.
        """
        n1 = ref.n1
        batch = fields.shape[0]
        out = self._ws("refgrad", (batch, 3, n1**3), dtype=fields.dtype)
        ops = self._diff_ops(ref, fields.dtype)
        # d/dxi:   out[.., zy, a] = sum_b grid[.., zy, b] * d[a, b]
        np.matmul(
            fields.reshape(batch, n1 * n1, n1),
            ops.dt,
            out=out[:, 0].reshape(batch, n1 * n1, n1),
        )
        # d/deta:  out[.., z, a, y] = sum_b d[a, b] * grid[.., z, b, y], as one
        # GEMM against kron(d^T, I) up to KRON_ETA_MAX_N1, per slab above.
        if ops.kron_grad is not None:
            np.matmul(
                fields.reshape(batch, n1, n1 * n1),
                ops.kron_grad,
                out=out[:, 1].reshape(batch, n1, n1 * n1),
            )
        else:
            np.matmul(
                ops.d,
                fields.reshape(batch, n1, n1, n1),
                out=out[:, 1].reshape(batch, n1, n1, n1),
            )
        # d/dzeta: out[.., a, zy] = sum_b d[a, b] * grid[.., b, zy]
        np.matmul(
            ops.d,
            fields.reshape(batch, n1, n1 * n1),
            out=out[:, 2].reshape(batch, n1, n1 * n1),
        )
        return out

    def reference_gradient(self, field: np.ndarray, ref: ReferenceHex) -> np.ndarray:
        n1 = ref.n1
        field = np.asarray(field)
        if field.ndim != 2 or field.shape[1] != n1**3:
            raise FEMError(f"field must be (E, {n1 ** 3}), got {field.shape}")
        return self._reference_gradient_batch(field, ref).copy()

    def _metric_planes(
        self,
        coef: np.ndarray,
        src: tuple[np.ndarray, ...],
        out: tuple[np.ndarray, ...],
    ) -> None:
        """``out[i] = sum_k coef[i, k] * src[k]`` on ``(F, E, Q)`` planes.

        The curved-element metric application: ``coef`` is a
        direction-major ``(3, 3, E, Q)`` copy of the per-node inverse
        Jacobian. Elementwise ufuncs in a fixed ``k`` order, so every
        node's result is independent of the batch it came in.
        """
        tmp = self._ws("metric_tmp", src[0].shape, dtype=src[0].dtype)
        for i, plane in enumerate(out):
            np.multiply(src[0], coef[i, 0], out=plane)
            for k in (1, 2):
                np.multiply(src[k], coef[i, k], out=tmp)
                plane += tmp

    def _apply_metric(
        self, ref_grad: np.ndarray, geom: ElementGeometry
    ) -> np.ndarray:
        """``(F, E, 3, Q)`` reference gradients -> ``(F, E, Q, 3)``.

        The result is a view of a fresh direction-major ``(F, 3, E, Q)``
        buffer: ``out[f, j]`` is one contiguous ``(E, Q)`` plane.
        """
        num_fields, num_elem, _, nodes = ref_grad.shape
        dtype = ref_grad.dtype
        inv = geom.inverse_jacobian
        buf = np.empty((num_fields, 3, num_elem, nodes), dtype=dtype)
        if inv.shape[1] == 1:
            # affine: (inv^T)[j, r] @ ref_grad[r, q], one GEMM per (f, e)
            # into the row-strided (3, Q) slice of the buffer.
            inv_t = np.swapaxes(inv[:, 0], -1, -2).astype(dtype, copy=False)
            np.matmul(inv_t, ref_grad, out=np.moveaxis(buf, 1, 2))
        else:
            # out[j] = sum_r invJ[r, j] * ref_grad[r]
            coef = np.ascontiguousarray(inv.transpose(3, 2, 0, 1), dtype=dtype)
            self._metric_planes(
                coef,
                tuple(ref_grad[:, :, r] for r in range(3)),
                tuple(buf[:, j] for j in range(3)),
            )
        return np.moveaxis(buf, 1, -1)

    def physical_gradient(
        self, field: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        n1 = ref.n1
        field = np.asarray(field)
        if field.ndim != 2 or field.shape[1] != n1**3:
            raise FEMError(f"field must be (E, {n1 ** 3}), got {field.shape}")
        return self.physical_gradient_many(field[None], geom, ref)[0]

    def physical_gradient_many(
        self, fields: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        fields = np.asarray(fields)
        if fields.ndim != 3:
            raise FEMError(f"fields must be (F, E, Q), got {fields.shape}")
        num_fields, num_elem, nodes = fields.shape
        # One derivative batch over the fused (F*E) axis instead of a
        # Python loop over fields.
        flat = np.ascontiguousarray(fields).reshape(num_fields * num_elem, nodes)
        ref_grad = self._reference_gradient_batch(flat, ref)
        ref_grad = ref_grad.reshape(num_fields, num_elem, 3, nodes)
        return self._apply_metric(ref_grad, geom)

    # -- weak divergence -----------------------------------------------------

    def _contravariant_flux(
        self, flux: np.ndarray, geom: ElementGeometry, scale: np.ndarray
    ) -> np.ndarray:
        """``(F, E, Q, 3)`` physical flux -> scaled ``(F, E, 3, Q)``.

        ``G[r, q] = scale_q * sum_p invJ[r, p] F_p(q)`` — the quantity the
        D^T stencils of the weak divergence contract against. A
        direction-major flux (see :meth:`_apply_metric`) hands the affine
        GEMMs row-strided ``(3, Q)`` operands and the curved branch
        contiguous planes.
        """
        dtype = flux.dtype
        inv = geom.inverse_jacobian
        g = self._ws("wdiv_g", flux.shape[:-2] + (3, flux.shape[-2]), dtype=dtype)
        flux_t = np.swapaxes(flux, -1, -2)  # (F, E, 3, Q)
        if inv.shape[1] == 1:
            np.matmul(inv[:, 0].astype(dtype, copy=False), flux_t, out=g)
        else:
            coef = np.ascontiguousarray(inv.transpose(2, 3, 0, 1), dtype=dtype)
            self._metric_planes(
                coef,
                tuple(flux_t[:, :, p] for p in range(3)),
                tuple(g[:, :, r] for r in range(3)),
            )
        g *= scale.astype(dtype, copy=False)[:, None, :]
        return g

    def _weak_divergence_core(
        self, contravariant: np.ndarray, ref: ReferenceHex
    ) -> np.ndarray:
        """Apply ``-D^T`` along each direction of ``(B, 3, Q)`` and sum.

        Contracts against negated operator copies (negation is exact, so
        this is bitwise ``-(sum of D^T contractions)``) straight into a
        freshly allocated, caller-owned ``(B, Q)`` result.
        """
        n1 = ref.n1
        batch = contravariant.shape[0]
        ops = self._diff_ops(ref, contravariant.dtype)
        res = np.empty((batch, n1**3), dtype=contravariant.dtype)
        tmp = self._ws("wdiv_tmp", (batch, n1**3), dtype=contravariant.dtype)
        # out[a] = -sum_q d[q, a] G[q] along the matching axis of each
        # direction (the transposed stencils of the gradient GEMMs).
        np.matmul(
            contravariant[:, 0].reshape(batch, n1 * n1, n1),
            ops.neg_d,
            out=res.reshape(batch, n1 * n1, n1),
        )
        if ops.neg_kron_div is not None:
            np.matmul(
                contravariant[:, 1].reshape(batch, n1, n1 * n1),
                ops.neg_kron_div,
                out=tmp.reshape(batch, n1, n1 * n1),
            )
        else:
            np.matmul(
                ops.neg_dt,
                contravariant[:, 1].reshape(batch, n1, n1, n1),
                out=tmp.reshape(batch, n1, n1, n1),
            )
        res += tmp
        np.matmul(
            ops.neg_dt,
            contravariant[:, 2].reshape(batch, n1, n1 * n1),
            out=tmp.reshape(batch, n1, n1 * n1),
        )
        res += tmp
        return res

    def weak_divergence(
        self, flux: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        n1 = ref.n1
        flux = np.asarray(flux)
        num_elem = flux.shape[0]
        if flux.shape != (num_elem, n1**3, 3):
            raise FEMError(f"flux must be (E, {n1 ** 3}, 3), got {flux.shape}")
        return self.weak_divergence_many(flux[None], geom, ref)[0]

    def weak_divergence_many(
        self, fluxes: np.ndarray, geom: ElementGeometry, ref: ReferenceHex
    ) -> np.ndarray:
        fluxes = np.asarray(fluxes)
        n1 = ref.n1
        if fluxes.ndim != 4 or fluxes.shape[-1] != 3 or fluxes.shape[2] != n1**3:
            raise FEMError(
                f"fluxes must be (F, E, {n1 ** 3}, 3), got {fluxes.shape}"
            )
        num_fields, num_elem, nodes, _ = fluxes.shape
        scale = geom.quadrature_scale(ref)
        g = self._contravariant_flux(fluxes, geom, scale)
        res = self._weak_divergence_core(
            g.reshape(num_fields * num_elem, 3, nodes), ref
        )
        return res.reshape(num_fields, num_elem, nodes)
