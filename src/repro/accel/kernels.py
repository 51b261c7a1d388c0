"""RKL and RKU kernel models (paper Fig. 3).

The **RKL** (Runge-Kutta Loop) kernel streams elements through the
Load-Compute-Store pipeline; its COMPUTE stage merges the Diffusion and
Convection terms ("we code-merged these similar operations into a single
function/module to enhance hardware reuse") and internally pipelines the
node-level stages 2a (load node), 2b (gradients, tau, residuals) and
2c (store node contribution).

The **RKU** (Runge-Kutta Update) kernel re-evaluates ``rho, u, T, E, p``
with five streaming update loops of the ``x[i] <- f(x[i], y[i])`` form
whose II hinges on the decoupled load/store interface optimization.

Everything here derives from the *same* per-node operation counts as the
CPU workload model (:mod:`repro.solver.workload`), so the two platforms
price identical work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import HLSError
from ..hls.arrays import ArraySpec, MemoryKind
from ..hls.loops import ArrayAccess, LoopNest
from ..fpga.axi import MemoryPort
from ..solver.workload import (
    NUM_FIELDS,
    NUM_GRADIENT_FIELDS,
    NUM_VISCOUS_FIELDS,
    METRIC_VALUES_PER_ELEMENT_CONST,
    euler_flux_per_node,
    gradient_per_node_per_field,
    primitives_per_node,
    rku_update_per_node,
    tau_per_node,
    viscous_flux_per_node,
    weak_divergence_per_node_per_field,
)

#: Residual fields accumulated per node (5 convection + 4 diffusion).
RESIDUAL_FIELD_OPS = NUM_FIELDS + NUM_VISCOUS_FIELDS


# ---------------------------------------------------------------------------
# RKL kernel
# ---------------------------------------------------------------------------


@dataclass
class RKLKernelModel:
    """Structural model of the RKL kernel for one polynomial order."""

    polynomial_order: int
    nodes_per_element: int
    node_loops: dict[str, LoopNest]
    onchip_arrays: dict[str, ArraySpec]
    load_ports: list[MemoryPort]
    store_ports: list[MemoryPort]
    batch_elements: int

    @property
    def n1(self) -> int:
        return self.polynomial_order + 1


#: Per-field element buffer names (separate arrays, as in the paper's
#: Fig. 4 code with its distinct rho/Tem/mu_fluid/E arrays). Keeping the
#: fields in separate small arrays is what lets Vitis's automatic
#: complete-partitioning threshold apply to the baseline.
STATE_BUFFER_NAMES = (
    "elem_rho",
    "elem_mom_x",
    "elem_mom_y",
    "elem_mom_z",
    "elem_energy",
)
RESIDUAL_BUFFER_NAMES = (
    "res_rho_buf",
    "res_mom_x_buf",
    "res_mom_y_buf",
    "res_mom_z_buf",
    "res_energy_buf",
)

#: Gradient neighbour reads of the 2b stage per state buffer: the u, v, w
#: gradients read the momentum buffers, the T gradient reads energy, and
#: the primitive conversion touches rho.
_STATE_READS_2B = {
    "elem_rho": 2.0,
    "elem_mom_x": 10.0,
    "elem_mom_y": 10.0,
    "elem_mom_z": 10.0,
    "elem_energy": 9.0,
}


def _node_loop_2a(q: int) -> LoopNest:
    """2a — LOAD Node: fetch the node's state and metric from the PL."""
    accesses = [
        ArrayAccess(name, reads_per_iter=1.0) for name in STATE_BUFFER_NAMES
    ]
    accesses.append(ArrayAccess("elem_metric", reads_per_iter=10.0))
    return LoopNest(
        name="node_load",
        trip_count=q,
        ops_per_iter={"int": 4.0, "mem": float(NUM_FIELDS + 10)},
        accesses=accesses,
    )


def _node_loop_2b(q: int, n1: int) -> LoopNest:
    """2b — COMPUTE Gradients, tau, and Residuals (merged diff+conv)."""
    prim = primitives_per_node()
    grad = gradient_per_node_per_field(n1).scaled(NUM_GRADIENT_FIELDS)
    tau = tau_per_node()
    visc = viscous_flux_per_node()
    euler = euler_flux_per_node()
    wdiv = weak_divergence_per_node_per_field(n1).scaled(RESIDUAL_FIELD_OPS)
    total = prim + grad + tau + visc + euler + wdiv
    accesses = [
        ArrayAccess(name, reads_per_iter=_STATE_READS_2B[name])
        for name in STATE_BUFFER_NAMES
    ]
    accesses.append(ArrayAccess("elem_metric", reads_per_iter=10.0))
    accesses.append(
        ArrayAccess(
            "node_partials",
            reads_per_iter=float(RESIDUAL_FIELD_OPS),
            writes_per_iter=float(RESIDUAL_FIELD_OPS),
        )
    )
    return LoopNest(
        name="node_compute",
        trip_count=q,
        ops_per_iter={
            "fadd": total.adds,
            "fmul": total.muls,
            "fdiv": total.divs,
            "int": 8.0,
        },
        accesses=accesses,
    )


def _node_loop_2c(q: int) -> LoopNest:
    """2c — STORE Node Contribution: write the node's residuals.

    The restructured code composes each node's five residuals from the
    staged partials and *writes* them (no read-modify-write) — removing
    the accumulation recurrence the baseline's fused loop carries.
    """
    accesses = [
        ArrayAccess(name, writes_per_iter=1.0)
        for name in RESIDUAL_BUFFER_NAMES
    ]
    accesses.append(
        ArrayAccess("node_partials", reads_per_iter=float(RESIDUAL_FIELD_OPS))
    )
    return LoopNest(
        name="node_store",
        trip_count=q,
        ops_per_iter={
            "fadd": float(RESIDUAL_FIELD_OPS),
            "int": 3.0,
            "mem": float(2 * NUM_FIELDS),
        },
        accesses=accesses,
    )


def _rkl_onchip_arrays(q: int, batch_elements: int) -> dict[str, ArraySpec]:
    """On-chip arrays of the RKL kernel.

    Per-field ``elem_*`` / ``res_*`` buffers hold the element in flight;
    ``stage_*`` are the double-buffered *batch* staging stores the LOAD
    task fills from DDR — the "larger matrices that surpass BRAM capacity
    are stored in the 288KB URAMs" of Section III-D. The connectivity
    staging table stays in BRAM (index-width data, constantly re-read).
    """
    arrays: dict[str, ArraySpec] = {}
    for name in STATE_BUFFER_NAMES:
        arrays[name] = ArraySpec(name=name, words=q, kind=MemoryKind.BRAM)
    for name in RESIDUAL_BUFFER_NAMES:
        arrays[name] = ArraySpec(name=name, words=q, kind=MemoryKind.BRAM)
    arrays["elem_metric"] = ArraySpec(
        name="elem_metric", words=q + 9, kind=MemoryKind.BRAM
    )
    arrays["node_partials"] = ArraySpec(
        name="node_partials", words=RESIDUAL_FIELD_OPS
    )
    # Double-buffered batch staging: state in/out in URAM (the large
    # matrices), metric terms and connectivity tables in BRAM.
    arrays["stage_in"] = ArraySpec(
        name="stage_in",
        words=2 * batch_elements * NUM_FIELDS * q,
        kind=MemoryKind.URAM,
    )
    arrays["stage_out"] = ArraySpec(
        name="stage_out",
        words=2 * batch_elements * NUM_FIELDS * q,
        kind=MemoryKind.URAM,
    )
    arrays["stage_metric"] = ArraySpec(
        name="stage_metric",
        words=2 * batch_elements * (q + METRIC_VALUES_PER_ELEMENT_CONST),
        kind=MemoryKind.BRAM,
    )
    arrays["stage_conn"] = ArraySpec(
        name="stage_conn",
        words=2 * batch_elements * q,
        kind=MemoryKind.BRAM,
    )
    return arrays


def _rkl_memory_ports(q: int) -> tuple[list[MemoryPort], list[MemoryPort]]:
    """Off-chip ports of the LOAD and STORE tasks.

    LOAD gathers the five conserved fields through the connectivity
    indirection and streams the per-element metric block; STORE streams
    the five element-contribution arrays contiguously ("storing the
    results for the next iteration").
    """
    load_ports = [
        MemoryPort(
            array=name,
            pattern="gather",
            values_per_iter=float(q),
            accesses_per_iter=float(q),
        )
        for name in ("rho", "mom_x", "mom_y", "mom_z", "energy")
    ]
    load_ports.append(
        MemoryPort(
            array="metric",
            pattern="stream",
            values_per_iter=float(q + METRIC_VALUES_PER_ELEMENT_CONST),
        )
    )
    load_ports.append(
        MemoryPort(
            array="connectivity",
            pattern="stream",
            values_per_iter=float(q),
        )
    )
    store_ports = [
        MemoryPort(
            array=f"res_{name}",
            pattern="stream",
            values_per_iter=float(q),
            is_write=True,
        )
        for name in ("rho", "mom_x", "mom_y", "mom_z", "energy")
    ]
    return load_ports, store_ports


def build_rkl_kernel(
    polynomial_order: int = 2, batch_elements: int = 1024
) -> RKLKernelModel:
    """Construct the RKL kernel model for the given FEM order."""
    if polynomial_order < 1:
        raise HLSError("polynomial_order must be >= 1")
    if batch_elements < 1:
        raise HLSError("batch_elements must be >= 1")
    n1 = polynomial_order + 1
    q = n1**3
    load_ports, store_ports = _rkl_memory_ports(q)
    return RKLKernelModel(
        polynomial_order=polynomial_order,
        nodes_per_element=q,
        node_loops={
            "node_load": _node_loop_2a(q),
            "node_compute": _node_loop_2b(q, n1),
            "node_store": _node_loop_2c(q),
        },
        onchip_arrays=_rkl_onchip_arrays(q, batch_elements),
        load_ports=load_ports,
        store_ports=store_ports,
        batch_elements=batch_elements,
    )


# ---------------------------------------------------------------------------
# RKU kernel
# ---------------------------------------------------------------------------


@dataclass
class RKUKernelModel:
    """Structural model of the RKU kernel.

    Five streaming loops over the global node array, one per updated
    quantity (``rho, u, T, E, p``), each of the form
    ``x[i] <- f(x[i], y[i], ...)``.
    """

    update_loops: list[LoopNest] = field(default_factory=list)
    onchip_arrays: dict[str, ArraySpec] = field(default_factory=dict)


#: Names of the five RKU update loops (the paper's updated quantities).
RKU_LOOP_NAMES = ("update_rho", "update_u", "update_T", "update_E", "update_p")


def build_rku_kernel(decoupled_interfaces: bool, read_latency_cycles: int = 8) -> RKUKernelModel:
    """Construct the RKU kernel model.

    ``decoupled_interfaces`` applies the Section III-C optimization: a
    dedicated read interface and a dedicated write interface per loop,
    removing the inter-iteration dependency (recurrence II 1 instead of
    ``1 + read_latency``).
    """
    from ..fpga.axi import update_loop_ii

    recurrence = update_loop_ii(decoupled_interfaces, read_latency_cycles)
    per_node = rku_update_per_node()
    loops = []
    for name in RKU_LOOP_NAMES:
        loops.append(
            LoopNest(
                name=name,
                # Trip count is a placeholder; timing scales it to the mesh.
                trip_count=1024,
                ops_per_iter={
                    "fadd": per_node.adds / len(RKU_LOOP_NAMES),
                    "fmul": per_node.muls / len(RKU_LOOP_NAMES),
                    "fdiv": per_node.divs / len(RKU_LOOP_NAMES),
                    "int": 2.0,
                },
                accesses=[
                    ArrayAccess("rku_stream_buf", reads_per_iter=2.0, writes_per_iter=1.0),
                ],
                recurrence_ii=recurrence,
            )
        )
    arrays = {
        "rku_stream_buf": ArraySpec(name="rku_stream_buf", words=4096),
    }
    return RKUKernelModel(update_loops=loops, onchip_arrays=arrays)
