#!/usr/bin/env python
"""Functional co-simulation: one pipeline IR, two executions.

Builds the operator pipeline the solver executes, shows the fusion
rewrites, lowers the fused pipeline to the accelerator's cycle-accurate
dataflow graph, and streams every element of a real mesh through it —
verifying that the cycle simulator computes the exact residual the
functional solver produces while its cycle count matches the analytic
``fill + II * (E - 1)`` model.

Streaming is batched and shardable: ``--block-size`` sets the elements
per simulated token (larger blocks co-simulate larger meshes at the
same wall-clock) and ``--num-cus`` shards the element stream across
parallel compute-unit task graphs under one simulator clock, deriving
the multi-CU timing from the same run.

With ``--full-step`` the co-simulation covers a *complete* RK time
step: every stage's RKL element stream chains into the RK-update node
stream (the ``repro.pipeline.rk_update`` pipeline) under one simulator
clock, the streamed final state is checked against the functional
``Simulation.step``, and the RKU cycles come from the trace instead of
only the closed form. ``--num-steps`` chains several steps under that
one clock.

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
        [--block-size B] [--num-cus N] [--full-step] [--num-steps K] \
        [--engine event|vectorized|auto] [--dtype float64|float32|mixed] \
        [--no-verify]
"""

from __future__ import annotations

import argparse

from repro.accel.cosim import cosimulate_small_mesh
from repro.accel.designs import proposed_design
from repro.backend import add_backend_argument, resolve_backend_name
from repro.mesh.hexmesh import channel_mesh, periodic_box_mesh
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
        "--full-step",
        action="store_true",
        help="also co-simulate a complete RK time step (RKL chained "
        "into the RKU node stream under one clock)",
    )
    parser.add_argument(
        "--num-steps",
        type=int,
        default=1,
        help="with --full-step: RK time steps chained under one "
        "simulator clock",
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
    result = cosimulate_small_mesh(
        design,
        mesh,
        num_steps=2,
        backend=backend,
        case=case,
        initial_state=initial_state,
        block_size=args.block_size,
        num_cus=args.num_cus,
        engine=args.engine,
        dtype=dtype,
        verify=verify,
    )
    print(result.trace.report())
    print()
    if args.num_cus > 1:
        from repro.accel.multi_cu import multi_cu_timing_from_cosim

        print(f"per-CU drain cycles: {result.per_cu_cycles}")
        timing = multi_cu_timing_from_cosim(
            result, mesh.num_nodes, base=design
        )
        print(
            f"derived multi-CU timing: RKL {timing.rkl_seconds_per_stage:.3e}"
            f" s/stage at {timing.clock_mhz:.0f} MHz "
            f"(RK step {timing.rk_step_seconds:.3e} s)"
        )
        print()
    if verify:
        print(
            f"streamed residual vs functional solver: "
            f"max rel err {result.residual_max_rel_err:.2e}"
        )
    else:
        print("verification skipped (--no-verify)")
    print(
        f"simulated cycles {result.simulated_cycles} vs analytic "
        f"{result.analytic_cycles:.0f} "
        f"(agreement {100 * (1 - result.cycle_agreement):.2f}%)"
    )
    if verify:
        print(
            f"functional run: kinetic energy {result.kinetic_energy:.6f}, "
            f"mass drift {result.mass_drift:.2e}"
        )

    if args.full_step:
        from repro.accel.cosim import (
            cosimulate_rk_stage,
            design_timing_from_rk_cosim,
        )

        print()
        print(
            f"== full RK step x{args.num_steps}: RKL element streams "
            "chained into the RKU node stream =="
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
        print(f"per-stage RKL cycles: {step.per_stage_rkl_cycles}")
        print(
            f"RKU cycles from trace {step.rku_simulated_cycles} vs closed "
            f"form {step.rku_analytic_cycles:.0f} "
            f"(agreement {100 * (1 - step.rku_cycle_agreement):.2f}%)"
        )
        print(f"whole step on one clock: {step.simulated_cycles} cycles")
        timing = design_timing_from_rk_cosim(design, step)
        print(
            f"trace-derived step timing: RKL "
            f"{timing.rkl_seconds_per_stage:.3e} s/stage, RKU "
            f"{timing.rku_seconds_per_step:.3e} s/step, RK step "
            f"{timing.rk_step_seconds:.3e} s"
        )


if __name__ == "__main__":
    main()
