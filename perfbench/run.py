"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tgv_p3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the traced run: it alternates untraced and traced
operations, reports the per-layer metrics and the tracing overhead, and
writes a Chrome trace to ``.perfbench_out/``. ``--workload all`` runs
every workload, each in its own process. Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
status is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Environment pinned before numpy loads: one BLAS/OpenMP thread per
#: process (the DSE pool adds at most ``min(2, nproc)`` workers), and no
#: transparent-huge-page advice from numpy, whose effect depends on the
#: host's memory fragmentation rather than on the program. The
#: program's own selection variables are neutralised.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
NEUTRALISED_ENV = ("REPRO_BACKEND", "REPRO_DTYPE", "REPRO_NUM_WORKERS")

#: The workloads (``perfbench.workloads.WORKLOADS``), named here so the
#: command line parses before the program is importable.
WORKLOAD_NAMES = ("tgv_p3", "cosim_step", "dse_sweep", "dse_sweep_warm")

#: Timed set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: End-to-end metrics (tracing off) and their units.
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    from perfbench.workloads import TRACED_BACKEND_KERNELS, TRACED_PIPELINE_KERNELS

    units = {
        "solver.residual.s": "s",
        "solver.residual.calls": "count",
        "solver.non_rk.s": "s",
    }
    for kernel in TRACED_PIPELINE_KERNELS:
        units[f"pipeline.{kernel}.s"] = "s"
        units[f"pipeline.{kernel}.calls"] = "count"
        units[f"pipeline.{kernel}.gflop"] = "GFLOP"
        units[f"pipeline.{kernel}.gflop_per_s"] = "GFLOP/s"
        units[f"pipeline.{kernel}.flop_per_byte"] = "flop/B"
    units["physics.pointwise.s"] = "s"
    for kernel in TRACED_BACKEND_KERNELS:
        units[f"backend.{kernel}.s"] = "s"
        units[f"backend.{kernel}.calls"] = "count"
        units[f"backend.{kernel}.gbytes"] = "GB"
    units.update(
        {
            "dataflow.run.s": "s",
            "dataflow.self.s": "s",
            "dataflow.schedule.s": "s",
            "dataflow.schedule.calls": "count",
            "dataflow.schedule_cache.hit_rate": "ratio",
            "accel.cosim.lowering.s": "s",
            "accel.design.s": "s",
            "dse.tier.closed-form.s_per_point": "s",
            "dse.tier.exact.s_per_point": "s",
            "dse.tier.cosim.s_per_point": "s",
            "dse.grid.s": "s",
            "dse.pool.efficiency": "ratio",
        }
    )
    for name in ("dispatched", "retries", "respawns", "timeouts", "quarantined"):
        units[f"dse.pool.{name}"] = "count"
    for label in ("cold", "warm"):
        units[f"dse.cache.{label}.writes"] = "count"
        units[f"dse.cache.{label}.hit_rate"] = "ratio"
        units[f"dse.cache.{label}.bytes"] = "B"
    units.update(
        {
            "dse.pareto.s": "s",
            "dse.promoted_frac": "ratio",
            "mesh.build.s": "s",
            "fem.geometry.s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# Machine stamp
# ---------------------------------------------------------------------------


def _cache_sizes() -> dict[str, str]:
    """L2 and last-level cache sizes of CPU 0, as the kernel reports them."""
    sizes: dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    levels = sorted(sizes)
    return {
        "l2": sizes.get("L2", "unknown"),
        "llc": sizes[levels[-1]] if levels else "unknown",
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {}
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache": _cache_sizes(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "thread_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest finished child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    out_dir: Path = OUT_DIR,
) -> dict:
    """Set up, measure and check one workload; returns the report."""
    from repro.dataflow import schedule_cache_stats

    from perfbench.calibrate import Calibrator
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, layer_patches

    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = out_dir / "work"
    work_dir.mkdir(exist_ok=True)
    tracer = Tracer()
    workload = WORKLOADS[name](seed, size, tracer, str(work_dir))
    workload.trace = trace
    patches = layer_patches() if trace else []
    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    # Untraced runs normalise each timing by the calibration samples
    # taken right before and after it (see perfbench.calibrate).
    calibrator = None if trace else Calibrator(workload.calibration)
    calibration: list[float] = []
    work = 0.0
    attempted = failed = 0
    cache_hits = cache_misses = 0
    traced_call_wall = 0.0
    try:
        with tracer.installed(patches):
            setup_times, setup_scales = [], []
            for index in range(SETUP_REPEATS):
                tracer.op, tracer.active = f"setup{index}", trace
                before = calibrator.sample() if calibrator else 0.0
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
                tracer.active = False
                if calibrator:
                    setup_scales.append((before + calibrator.sample()) / 2)
            workload.prepare()
            if calibrator:
                calibration.append(calibrator.sample())
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or attempted < 2:
                # Traced runs alternate untraced and traced operations so
                # load drift hits both sides of the overhead ratio.
                traced = trace and attempted % 2 == 1
                tracer.op, tracer.active = f"op{attempted}", traced
                stats_before = schedule_cache_stats()
                call_start = time.perf_counter()
                elapsed, outcome = workload.op()
                call_wall = time.perf_counter() - call_start
                stats_after = schedule_cache_stats()
                tracer.active = False
                if traced:
                    traced_call_wall += call_wall
                    cache_hits += stats_after["hits"] - stats_before["hits"]
                    cache_misses += (
                        stats_after["misses"] - stats_before["misses"]
                    )
                times["traced" if traced else "untraced"].append(elapsed)
                if calibrator:
                    calibration.append(calibrator.sample())
                work += workload.work(outcome)
                attempted += 1
                failed += not workload.op_ok(outcome)
            checks = workload.checks()
        report = {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "work_unit": workload.work_unit,
            "checks": checks,
            "attempted": attempted,
            "failed": failed,
            "correct": failed == 0 and all(ok for _, ok, _ in checks),
        }
        untraced = times["untraced"]
        if trace:
            traced_ops = len(times["traced"])
            metrics = _layer_metrics(tracer, workload, traced_ops)
            metrics["dataflow.schedule_cache.hit_rate"] = (
                cache_hits / (cache_hits + cache_misses)
                if cache_hits + cache_misses
                else 0.0
            )
            metrics["trace.overhead_frac"] = (
                statistics.median(times["traced"]) / statistics.median(untraced)
                - 1.0
            )
            # Self times of the traced operations' spans, which sum to
            # the part of the operation calls' wall inside a span.
            own = tracer.totals(_is_op)
            report["self_breakdown"] = sorted(
                ((span, t.self_seconds / traced_ops) for span, t in own.items()),
                key=lambda item: -item[1],
            )
            every = tracer.totals(lambda op: op.startswith("op"))
            report["self_coverage"] = (
                sum(t.self_seconds for t in every.values()) / traced_call_wall
            )
            report["trace_file"] = str(
                _write_trace(tracer, out_dir, name, seed)
            )
            report["op_s_traced_p50"] = statistics.median(times["traced"])
            report["op_s_untraced_p50"] = statistics.median(untraced)
        else:
            # Each operation is scaled by the samples on either side of it.
            normalised = _normalise(
                untraced,
                [(a + b) / 2 for a, b in zip(calibration, calibration[1:])],
            )
            metrics = {
                "setup_s": statistics.median(
                    _normalise(setup_times, setup_scales)
                ),
                "op_s_p50": statistics.median(normalised),
                "op_s_p90": statistics.quantiles(
                    normalised, n=10, method="inclusive"
                )[-1],
                "work_per_s": work / sum(normalised),
                "peak_rss_mb": _peak_rss_mb(),
            }
            report["raw"] = {
                "setup_s": statistics.median(setup_times),
                "op_s_p50": statistics.median(untraced),
                "calibration_s": statistics.median(calibration),
            }
        report["metrics"] = metrics
        return report
    finally:
        workload.close()


def _normalise(times: list[float], scales: list[float]) -> list[float]:
    """Times at the reference machine speed, given the calibration time
    measured around each."""
    from perfbench.calibrate import REFERENCE_SECONDS

    return [t * REFERENCE_SECONDS / s for t, s in zip(times, scales)]


def _is_op(op: str) -> bool:
    """Spans of a traced operation (the DSE tier replay excluded)."""
    return op.startswith("op") and not op.endswith(".replay")


def _layer_metrics(tracer, workload, traced_ops: int) -> dict[str, float]:
    """Per-layer metrics, per traced operation (set-up ones per set-up)."""
    from perfbench.workloads import TRACED_BACKEND_KERNELS, TRACED_PIPELINE_KERNELS

    ops = tracer.totals(_is_op)
    setup = tracer.totals(lambda op: op.startswith("setup"))
    n = traced_ops
    out = {
        "solver.residual.s": ops["solver.residual"].seconds / n,
        "solver.residual.calls": ops["solver.residual"].calls / n,
        "solver.non_rk.s": ops["solver.run"].self_seconds / n,
    }
    for kernel in TRACED_PIPELINE_KERNELS:
        span = f"pipeline.{kernel}"
        seconds = ops[span].seconds
        flop = tracer.counter(span, "flop", _is_op)
        nbytes = tracer.counter(span, "byte", _is_op)
        out[f"{span}.s"] = seconds / n
        out[f"{span}.calls"] = ops[span].calls / n
        out[f"{span}.gflop"] = flop / 1e9 / n
        out[f"{span}.gflop_per_s"] = flop / 1e9 / seconds if seconds else 0.0
        out[f"{span}.flop_per_byte"] = flop / nbytes if nbytes else 0.0
    out["physics.pointwise.s"] = ops["pipeline.combined_flux"].self_seconds / n
    for kernel in TRACED_BACKEND_KERNELS:
        span = f"backend.{kernel}"
        out[f"{span}.s"] = ops[span].seconds / n
        out[f"{span}.calls"] = ops[span].calls / n
        out[f"{span}.gbytes"] = tracer.counter(span, "byte", _is_op) / 1e9 / n
    in_cosim = tracer.seconds_inside("dataflow.run", "accel.cosim", _is_op)
    out.update(
        {
            "dataflow.run.s": ops["dataflow.run"].seconds / n,
            "dataflow.self.s": ops["dataflow.run"].self_seconds / n,
            "dataflow.schedule.s": ops["dataflow.schedule"].seconds / n,
            "dataflow.schedule.calls": ops["dataflow.schedule"].calls / n,
            "accel.cosim.lowering.s": (ops["accel.cosim"].seconds - in_cosim)
            / n,
            "accel.design.s": setup["accel.design"].seconds / SETUP_REPEATS,
            "mesh.build.s": setup["mesh.build"].seconds / SETUP_REPEATS,
            "fem.geometry.s": setup["fem.geometry"].seconds / SETUP_REPEATS,
        }
    )
    out.update(workload.layer_metrics(traced_ops))
    units = _per_layer_units()
    return {key: out.get(key, 0.0) for key in units if key != "trace.overhead_frac"}


def _write_trace(tracer, out_dir: Path, name: str, seed: int) -> Path:
    path = out_dir / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(tracer.chrome_trace(machine_stamp(seed))))
    return path


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _result_line(report: dict, units: dict[str, str]) -> dict:
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["metrics"][name], "unit": units[name]}
            for name in units
        },
    }


def _print_report(report: dict, units: dict[str, str]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {int(report['trace'])}")
    fail_frac = report["failed"] / report["attempted"]
    print(f"  samples {report['attempted']}  fail_frac {fail_frac:.4f} "
          f"({report['failed']}/{report['attempted']})  "
          f"work unit {report['work_unit']}")
    for check, ok, detail in report["checks"]:
        print(f"  check {check}: {'ok' if ok else 'FAILED'}  {detail}")
    for name, unit in units.items():
        print(f"  {name} = {report['metrics'][name]:.6g} {unit}")
    if "raw" in report:
        raw = report["raw"]
        print(f"  unnormalised: setup_s {raw['setup_s']:.6g} s, op_s_p50 "
              f"{raw['op_s_p50']:.6g} s; calibration sample "
              f"{raw['calibration_s']:.6g} s")
    if report["trace"]:
        print(f"  op_s_p50 untraced {report['op_s_untraced_p50']:.6g} s, "
              f"traced {report['op_s_traced_p50']:.6g} s")
        print(f"  span self times cover {report['self_coverage']:.2%} of the "
              "traced operation calls' wall; largest per operation:")
        for span, seconds in report["self_breakdown"][:12]:
            print(f"    {span:<36} {seconds:.6g} s")
        print(f"  chrome trace: {report['trace_file']}")


def _run_all(args) -> int:
    """Every workload in its own process; non-zero if any fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status |= subprocess.run(command, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    for key in NEUTRALISED_ENV:
        os.environ.pop(key, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    units = _per_layer_units() if args.trace else END_TO_END
    print("machine " + json.dumps(machine_stamp(args.seed), sort_keys=True))
    _print_report(report, units)
    print(json.dumps(_result_line(report, units)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
