#!/usr/bin/env python
"""Functional co-simulation: one pipeline IR, two executions.

Builds the operator pipeline the solver executes, shows the fusion
rewrites, lowers the fused pipeline to the accelerator's cycle-accurate
dataflow graph, and co-simulates complete RK time steps on a real mesh:
every stage's RKL element stream chains into the RK-update node stream
(the ``repro.pipeline.rk_update`` pipeline) under one simulator clock.
The streamed final state is checked against the functional
``Simulation.step``, each stage's RKL cycles against the analytic
``fill + II * (E - 1)`` block law, and the RKU cycles come from the
trace instead of only the closed form. ``--num-steps`` chains several
steps under that one clock.

Streaming is batched and shardable: ``--block-size`` sets the elements
per simulated token (larger blocks co-simulate larger meshes at the
same wall-clock) and ``--num-cus`` shards the element stream across
parallel compute-unit task graphs under one simulator clock, deriving
the multi-CU timing from the same run.

``--engine`` selects the dataflow simulation engine: the per-token
``event`` oracle, the ``vectorized`` schedule engine (array recurrences
plus batched payload execution — the default via ``auto``), whose
traces are identical.

``--no-verify`` skips the redundant functional verification solve: the
streamed payloads compute identical values either way, so the fast path
drops only the error-report fields (the DSE cosim tier runs this way).

Usage::

    python examples/functional_cosim.py [elements_per_direction] [order] \
        [--backend reference|fast] [--case tgv|channel] \
        [--block-size B] [--num-cus N] [--num-steps K] \
        [--engine event|vectorized|auto] [--dtype float64|float32|mixed] \
        [--no-verify]
"""

from __future__ import annotations

import argparse

from repro.accel.cosim import (
    analytic_block_cycles,
    cosimulate_rk_stage,
    design_timing_from_rk_cosim,
)
from repro.accel.designs import proposed_design
from repro.backend import add_backend_argument, resolve_backend_name
from repro.accel.multi_cu import nodes_per_compute_unit
from repro.mesh.hexmesh import channel_mesh, periodic_box_mesh
from repro.mesh.partition import partition_elements_balanced
from repro.pipeline import navier_stokes_pipeline
from repro.precision import add_dtype_argument, resolve_dtype


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("elements", nargs="?", type=int, default=2)
    parser.add_argument("order", nargs="?", type=int, default=3)
    parser.add_argument(
        "--case",
        choices=("tgv", "channel"),
        default="tgv",
        help="periodic Taylor-Green vortex or wall-bounded decaying shear",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=1,
        help="elements per simulated token (batched streaming)",
    )
    parser.add_argument(
        "--num-cus",
        type=int,
        default=1,
        help="compute units to shard the element stream across",
    )
    parser.add_argument(
        "--num-steps",
        type=int,
        default=1,
        help="RK time steps chained under one simulator clock",
    )
    parser.add_argument(
        "--engine",
        choices=("event", "vectorized", "auto"),
        default="auto",
        help="dataflow simulation engine: the per-token event oracle, "
        "the vectorized schedule engine, or auto (default)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the redundant functional verification solve (the "
        "streamed payloads compute identical values; the error-report "
        "fields are omitted)",
    )
    add_backend_argument(parser)
    add_dtype_argument(parser)
    args = parser.parse_args()
    backend = resolve_backend_name(args.backend)
    dtype = resolve_dtype(args.dtype)
    verify = not args.no_verify

    print("== the operator pipeline IR and its fusion rewrites ==")
    for fusion in ("none", "gather", "full"):
        print(navier_stokes_pipeline(fusion).describe())
        print()

    case = None
    initial_state = None
    if args.case == "channel":
        from repro.physics.channel import decaying_shear_initial
        from repro.physics.taylor_green import TGVCase

        case = TGVCase(mach=0.05, reynolds=100.0)
        mesh = channel_mesh(args.elements, args.order)
        initial_state = decaying_shear_initial(mesh.coords, case)
    else:
        mesh = periodic_box_mesh(args.elements, args.order)
    design = proposed_design()
    print(
        f"== co-simulating {args.case} on {mesh.num_elements} elements "
        f"({mesh.num_nodes} nodes, p={args.order}), backend '{backend}', "
        f"block size {args.block_size}, {args.num_cus} CU(s), "
        f"engine '{args.engine}', dtype '{dtype}' =="
    )
    step = cosimulate_rk_stage(
        design,
        mesh,
        backend=backend,
        case=case,
        initial_state=initial_state,
        block_size=args.block_size,
        num_cus=args.num_cus,
        num_steps=args.num_steps,
        engine=args.engine,
        dtype=dtype,
        verify=verify,
    )
    print(step.trace.report())
    print()
    if verify:
        print(
            f"streamed {step.num_steps} step(s) vs Simulation.step: "
            f"max rel err {step.state_max_rel_err:.2e} (dt {step.dt:.3e})"
        )
    else:
        print(
            f"streamed {step.num_steps} step(s), verification "
            f"skipped (dt {step.dt:.3e})"
        )
    # The analytic block law of the slowest shard: the RKL stage
    # completes when the last compute unit drains.
    nodes_per_cu = nodes_per_compute_unit(mesh.num_nodes, args.num_cus)
    analytic = max(
        analytic_block_cycles(design, nodes_per_cu, part.size, args.block_size)
        for part in partition_elements_balanced(
            mesh.num_elements, args.num_cus
        )
    )
    simulated = max(step.per_stage_rkl_cycles)
    print(
        f"per-stage RKL cycles {step.per_stage_rkl_cycles} vs analytic "
        f"{analytic:.0f} (agreement "
        f"{100 * (1 - abs(simulated - analytic) / analytic):.2f}%)"
    )
    print(
        f"RKU cycles from trace {step.rku_simulated_cycles} vs closed "
        f"form {step.rku_analytic_cycles:.0f} "
        f"(agreement {100 * (1 - step.rku_cycle_agreement):.2f}%)"
    )
    print(f"whole run on one clock: {step.simulated_cycles} cycles")
    timing = design_timing_from_rk_cosim(design, step)
    print(
        f"trace-derived step timing ({timing.num_compute_units} CU(s) at "
        f"{timing.clock_mhz:.0f} MHz): RKL "
        f"{timing.rkl_seconds_per_stage:.3e} s/stage, RKU "
        f"{timing.rku_seconds_per_step:.3e} s/step, RK step "
        f"{timing.rk_step_seconds:.3e} s"
    )

if __name__ == "__main__":
    main()
