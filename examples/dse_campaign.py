#!/usr/bin/env python
"""Design-space campaign: tiered sweep, cached, optionally parallel.

Expands a declarative campaign over the accelerator design space
(polynomial order, mesh size, streaming block size, compute units,
device, fusion mode, partition strategy), prices the whole grid with
the closed-form models, promotes the Pareto front to the exact
vectorized schedule solve, and co-simulates the finalists with real
payloads — reporting the front, the cross-tier agreement, and the
cache economics of a warm re-run.

The grid prices in this process; ``--workers`` sizes the supervised
process pool the co-simulated finalists run on (crashed or hung
workers are respawned and their points retried, so a bad point is
quarantined instead of killing the sweep); ``--tier``
caps the evaluation ladder; ``--cache-dir`` persists results across
runs (content-addressed, so any changed parameter re-prices);
``--resume`` continues a killed campaign from its checkpoint journal
(requires ``--cache-dir``) with pure cache hits on persisted work;
``--retries`` and ``--batch-timeout`` tune the supervision policy;
``--json`` writes the campaign summary for downstream tooling.

Usage::

    python examples/dse_campaign.py [--orders 2,3] [--meshes 2,3] \
        [--blocks 1,2,4] [--cus 1,2,4] [--devices u200,hbm] \
        [--fusions none,gather,full] [--partitions balanced,contiguous] \
        [--precisions float64,float32,mixed] \
        [--tier closed-form|exact|cosim] [--workers N] \
        [--cache-dir DIR] [--resume] [--retries N] \
        [--batch-timeout SECONDS] [--json FILE]
"""

from __future__ import annotations

import argparse
import json
import time

from repro.dse import CampaignSpec, ResultCache, RetryPolicy, run_campaign


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(","))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--orders",
        type=_int_list,
        default=(2, 3),
        help="comma-separated polynomial orders to sweep",
    )
    parser.add_argument(
        "--meshes",
        type=_int_list,
        default=(2, 3),
        help="comma-separated elements-per-direction values",
    )
    parser.add_argument(
        "--blocks",
        type=_int_list,
        default=(1, 2, 4),
        help="comma-separated streaming block sizes",
    )
    parser.add_argument(
        "--cus",
        type=_int_list,
        default=(1, 2, 4),
        help="comma-separated compute-unit counts",
    )
    parser.add_argument(
        "--devices",
        type=_str_list,
        default=("u200", "hbm"),
        help="comma-separated device axis values (u200, hbm)",
    )
    parser.add_argument(
        "--fusions",
        type=_str_list,
        default=("none", "gather", "full"),
        help="comma-separated operator-fusion modes",
    )
    parser.add_argument(
        "--partitions",
        type=_str_list,
        default=("balanced", "contiguous"),
        help="comma-separated element-partition strategies",
    )
    parser.add_argument(
        "--precisions",
        type=_str_list,
        default=("float64",),
        help="comma-separated precision modes (float64, float32, mixed); "
        "moves only the cosim tier's recorded state error",
    )
    parser.add_argument(
        "--tier",
        choices=("closed-form", "exact", "cosim"),
        default="cosim",
        help="highest evaluation tier to promote survivors to",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="supervised-pool width for the cosim tier (the grid "
        "prices in this process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the content-addressed result cache "
        "(persists across runs)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed campaign from its checkpoint journal "
        "(requires --cache-dir); persisted points replay from cache",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="supervised-pool retry budget per cosim point before "
        "quarantine",
    )
    parser.add_argument(
        "--batch-timeout",
        type=float,
        default=120.0,
        help="per-point cosim deadline in seconds; a point still running "
        "when it expires is treated as hung and retried (0 disables)",
    )
    parser.add_argument(
        "--json",
        default=None,
        help="write the campaign summary to this JSON file",
    )
    args = parser.parse_args()

    spec = CampaignSpec(
        name="example-campaign",
        axes=(
            ("polynomial_order", args.orders),
            ("elements_per_direction", args.meshes),
            ("block_size", args.blocks),
            ("num_cus", args.cus),
            ("device", args.devices),
            ("fusion", args.fusions),
            ("partition", args.partitions),
            ("precision", args.precisions),
        ),
    )
    cache = ResultCache(args.cache_dir)
    retry = RetryPolicy(
        max_retries=args.retries,
        batch_timeout=args.batch_timeout or None,
    )
    start = time.perf_counter()
    result = run_campaign(
        spec,
        workers=args.workers,
        cache=cache,
        highest_tier=args.tier,
        retry=retry,
        resume=args.resume,
    )
    elapsed = time.perf_counter() - start

    print(
        f"== campaign: {result.num_grid_points} grid points, "
        f"{len(result.results)} feasible, {len(result.skipped)} skipped, "
        f"{args.workers} worker(s), {elapsed:.2f}s =="
    )
    print(
        f"cache: {cache.stats.hits} hits / {cache.stats.misses} misses "
        f"(hit rate {cache.stats.hit_rate:.0%})"
    )
    if result.resumed:
        print("resumed from the checkpoint journal")
    if result.failures:
        print(f"quarantined casualties: {len(result.failures)}")
        for failed in result.failures:
            print(f"  {failed.tier}: {failed.error}")
    print()
    print(f"== Pareto front ({len(result.front)} points) ==")
    header = (
        f"{'p':>2} {'epd':>3} {'blk':>3} {'cus':>3} {'dev':>5} "
        f"{'step cycles':>12} {'LUT':>9} {'DSP':>6} {'BRAM':>6}"
    )
    print(header)
    print("-" * len(header))
    for entry in sorted(result.front, key=lambda r: r.step_cycles):
        p = entry.point
        print(
            f"{p.polynomial_order:>2} {p.elements_per_direction:>3} "
            f"{p.block_size:>3} {p.num_cus:>3} {p.device:>5} "
            f"{entry.step_cycles:>12.0f} {entry.lut:>9.0f} "
            f"{entry.dsp:>6.0f} {entry.bram36:>6.0f}"
        )
    if result.survivors:
        print()
        print(f"== tier agreement ({len(result.agreement)} checks) ==")
        for check in result.agreement:
            status = "ok" if check.ok else "VIOLATION"
            print(
                f"  {check.tier:>5}: rel err {check.relative_error:.2e} "
                f"(bound {check.bound:.0%}) {status}"
            )
    if result.cosim:
        errors = [
            r.state_max_rel_err
            for r in result.cosim
            if r.state_max_rel_err is not None
        ]
        detail = (
            f", worst state error vs functional solver {max(errors):.2e}"
            if errors
            else " (state verification off; see run_campaign(verify=...))"
        )
        print(f"co-simulated finalists: {len(result.cosim)}{detail}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=1)
        print(f"wrote campaign summary to {args.json}")


if __name__ == "__main__":
    main()
