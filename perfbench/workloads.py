"""The benchmark workloads: seeded inputs, one closed-loop operation, checks.

Every workload pins its program settings explicitly (backend ``"fast"``,
fusion ``"full"``, dtype, one payload worker, ``workers=min(2, nproc)``
for the DSE pool) and receives only inputs generated from the seed:

- ``tgv_p3`` — one ``Simulation.run(1)`` on a periodic TGV box;
- ``cosim_step`` — one co-simulated full RK step (``cosimulate_rk_stage``);
- ``dse_sweep`` / ``dse_sweep_warm`` — one full-ladder ``run_campaign``
  over a seeded random sub-grid, cold into a fresh disk cache and then
  warm against the same directory; the first workload times the cold
  call, the second the warm one.

See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from repro.accel import cosim as cosim_module
from repro.accel.designs import PROPOSED_OPTIONS, custom_design
from repro.backend import KernelBackend, get_backend
from repro.dataflow import schedule as schedule_module
from repro.dataflow.simulator import DataflowSimulator
from repro.dse import ResultCache, run_campaign
from repro.dse import executor as executor_module
from repro.dse import tiers as tiers_module
from repro.dse.campaign import CampaignSpec, DesignPoint
from repro.dse.pool import SupervisedPool
from repro.mesh.hexmesh import periodic_box_mesh
from repro.physics.diagnostics import total_mass
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from repro.pipeline import PIPELINE_KERNELS, PipelineContext, stage_op_count
from repro.pipeline.navier_stokes import FUSIONS
from repro.solver import navier_stokes as ns_module
from repro.solver.navier_stokes import NavierStokesOperator
from repro.solver.simulation import Simulation

#: Pipeline kernels whose spans, operation counts and bytes are reported.
TRACED_PIPELINE_KERNELS = (
    "gather",
    "combined_flux",
    "weak_divergence",
    "scatter_add",
    "stage_axpy",
    "update_primitives",
)

#: Backend kernels the timing proxy reports.
TRACED_BACKEND_KERNELS = (
    "gather",
    "physical_gradient_many",
    "weak_divergence_many",
    "scatter_add_many",
)

#: Sizes: ``full`` is what the benchmark measures, ``tiny`` what its own
#: tests run.
SIZES = {
    "full": {
        "elements": 8,
        "order": 3,
        "block_size": 32,
        "num_cus": 2,
        "dse_orders": (2, 3),
        "dse_elements": (2, 3, 4, 6, 8),
        "dse_blocks": (1, 8, 32),
        "replay_points": 240,
    },
    "tiny": {
        "elements": 2,
        "order": 2,
        "block_size": 4,
        "num_cus": 2,
        "dse_orders": (2,),
        "dse_elements": (2,),
        "dse_blocks": (2,),
        "replay_points": 8,
    },
}

#: Relative tolerance of the ``reference``-backend replay.
REFERENCE_TOL = 1e-12
#: Steps of the trajectory replayed on the ``reference`` backend.
REFERENCE_PREFIX_STEPS = 3
#: Relative total-mass drift allowed over a trajectory segment.
MASS_DRIFT_TOL = 1e-12
#: Max-norm relative error of the f32 streamed step vs the functional
#: f32 step (the precision suite's cosim-tier bound).
F32_PARITY_TOL = 1e-6
#: The TGV trajectory restarts from the seeded state after this many
#: steps, so a long run keeps stepping the same flow regime.
TGV_RESTART_STEPS = 100


def seeded_tgv_state(mesh, seed: int):
    """The TGV initial state with a seeded smooth amplitude/phase change.

    The velocity amplitude is scaled by a factor in [0.9, 1.1] and the
    vortex array shifted by a phase in [0, 2*pi) per direction; the
    field stays smooth and periodic on the box.
    """
    rng = np.random.default_rng(seed)
    amplitude = float(rng.uniform(0.9, 1.1))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=3) * DEFAULT_TGV.length
    case = replace(DEFAULT_TGV, velocity=amplitude * DEFAULT_TGV.velocity)
    return taylor_green_initial(mesh.coords + phase[None, :], case)


def health_ok(state, gas) -> bool:
    """Finite state with positive density and pressure."""
    stacked = state.as_stacked()
    return bool(
        np.isfinite(stacked).all()
        and state.rho.min() > 0.0
        and state.pressure(gas).min() > 0.0
    )


def relative_max_error(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = float(np.abs(expected).max()) or 1.0
    return float(np.abs(actual - expected).max()) / scale


# ---------------------------------------------------------------------------
# Instrumentation targets
# ---------------------------------------------------------------------------


def _nbytes(value) -> int:
    """Bytes of every array in ``value`` (arrays, lists/tuples of them)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(item) for item in value)
    return 0


def _bytes_hook(name: str):
    def hook(tracer, args, result) -> None:
        tracer.count(name, "byte", _nbytes(args) + _nbytes(result))

    return hook


def _pipeline_hook(kernel: str):
    """Computed flops (``stage_op_count``) and payload bytes of a call."""
    name = f"pipeline.{kernel}"

    def hook(tracer, args, result) -> None:
        ctx, stage, *inputs = args
        if isinstance(ctx, PipelineContext):
            # Element pipeline: counts are per element.
            count = stage_op_count(stage, ctx.ref.order)
            units = ctx.num_elements
        else:
            # RK-update node pipeline: counts are per node.
            count = stage_op_count(stage, 1)
            units = inputs[0].shape[-1]
        tracer.count(name, "flop", count.flops * units)
        tracer.count(name, "byte", _nbytes(inputs) + _nbytes(result))

    return hook


def layer_patches() -> list[tuple]:
    """``(owner, attribute, span name, hook)`` of every wrapped layer call."""
    patches = [
        (Simulation, "run", "solver.run", None),
        (Simulation, "step", "solver.step", None),
        (NavierStokesOperator, "residual", "solver.residual", None),
        (ns_module, "compute_geometry", "fem.geometry", None),
        (DataflowSimulator, "run", "dataflow.run", None),
        (schedule_module, "compute_schedule", "dataflow.schedule", None),
        (cosim_module, "cosimulate_rk_stage", "accel.cosim", None),
        (tiers_module, "cosimulate_rk_stage", "accel.cosim", None),
        (SupervisedPool, "run", "dse.grid", None),
        (executor_module, "pareto_front", "dse.pareto", None),
        (executor_module, "prewarm_designs", "dse.prewarm", None),
    ]
    patches += [
        (PIPELINE_KERNELS, kernel, f"pipeline.{kernel}", _pipeline_hook(kernel))
        for kernel in TRACED_PIPELINE_KERNELS
    ]
    return patches


class TimingBackend(KernelBackend):
    """``KernelBackend`` proxy recording a ``backend.<kernel>`` span per call.

    Delegates everything to ``inner``; the traced kernels also count the
    bytes of their array arguments and results.
    """

    def __init__(self, inner: KernelBackend, tracer) -> None:
        self.name = inner.name
        self.precision = inner.precision
        self._inner = inner
        for kernel in TRACED_BACKEND_KERNELS:
            name = f"backend.{kernel}"
            setattr(
                self,
                kernel,
                tracer.wrap(getattr(inner, kernel), name, _bytes_hook(name)),
            )

    def gather(self, global_field, connectivity):
        return self._inner.gather(global_field, connectivity)

    def scatter_add(self, element_values, connectivity, num_nodes):
        return self._inner.scatter_add(element_values, connectivity, num_nodes)

    def reference_gradient(self, field, ref):
        return self._inner.reference_gradient(field, ref)

    def physical_gradient(self, field, geom, ref):
        return self._inner.physical_gradient(field, geom, ref)

    def weak_divergence(self, flux, geom, ref):
        return self._inner.weak_divergence(flux, geom, ref)

    def close(self) -> None:
        self._inner.close()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One benchmark workload.

    The runner calls :meth:`setup` several times (each timed), then
    :meth:`prepare` once, then :meth:`op` in a closed loop — each call
    returns ``(timed seconds, outcome)`` and :meth:`op_ok` judges the
    outcome — and finally :meth:`checks` once.
    """

    name = ""
    #: ``work_unit`` units one operation completes.
    work_unit = ""
    #: The ``perfbench.calibrate`` kernel that timings are normalised by.
    calibration = "numeric"

    def __init__(self, seed: int, size: str, tracer, work_dir: str) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.tracer = tracer
        self.work_dir = work_dir
        self.trace = False

    def backend(self, dtype: str):
        """The compute backend: ``"fast"``, behind the timing proxy when
        traced."""
        if not self.trace:
            return "fast"
        return TimingBackend(get_backend("fast", precision=dtype), self.tracer)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the measured loop."""

    def op(self):
        raise NotImplementedError

    def op_ok(self, outcome) -> bool:
        raise NotImplementedError

    def work(self, outcome) -> float:
        raise NotImplementedError

    def checks(self) -> list[tuple[str, bool, str]]:
        """``(name, passed, detail)`` of every correctness check."""
        raise NotImplementedError

    def layer_metrics(self, traced_ops: int) -> dict[str, float]:
        """Workload-specific per-layer metrics (per traced operation)."""
        return {}

    def close(self) -> None:
        pass


class TGVStep(Workload):
    """``Simulation.run(1)`` on the periodic TGV box (8^3 elements, p=3)."""

    name = "tgv_p3"
    work_unit = "node-DOF"

    def _simulation(self, mesh, backend):
        return Simulation(
            mesh,
            DEFAULT_TGV,
            initial_state=self.state0,
            fusion="full",
            backend=backend,
            num_workers=1,
            dtype="float64",
        )

    def setup(self) -> None:
        with self.tracer.span("mesh.build"):
            self.mesh = periodic_box_mesh(
                self.size["elements"], self.size["order"]
            )
        self.state0 = seeded_tgv_state(self.mesh, self.seed)
        self.sim = self._simulation(self.mesh, self.backend("float64"))
        self.sim.run(1)
        self.mass0 = total_mass(self.state0, self.sim.operator.mass)
        self.steps = 1
        self.max_drift = 0.0
        self.unhealthy = 0

    def op(self):
        if self.steps % TGV_RESTART_STEPS == 0:
            self.sim.state = self.state0
            self.sim.time = 0.0
        start = time.perf_counter()
        self.sim.run(1)
        elapsed = time.perf_counter() - start
        self.steps += 1
        return elapsed, self.sim.state

    def op_ok(self, state) -> bool:
        drift = abs(total_mass(state, self.sim.operator.mass) - self.mass0)
        self.max_drift = max(self.max_drift, drift / abs(self.mass0))
        healthy = health_ok(state, self.sim.gas)
        self.unhealthy += not healthy
        return healthy

    def work(self, state) -> float:
        return 5.0 * state.num_nodes

    def checks(self):
        fast = self._simulation(self.mesh, "fast")
        reference = self._simulation(self.mesh, "reference")
        fast.run(REFERENCE_PREFIX_STEPS)
        reference.run(REFERENCE_PREFIX_STEPS)
        err = relative_max_error(
            fast.state.as_stacked(), reference.state.as_stacked()
        )
        return [
            (
                "health",
                self.unhealthy == 0,
                f"{self.unhealthy} step(s) non-finite or with rho/p <= 0",
            ),
            (
                "reference_prefix",
                err <= REFERENCE_TOL,
                f"{REFERENCE_PREFIX_STEPS}-step rel err {err:.2e} "
                f"(tol {REFERENCE_TOL:g})",
            ),
            (
                "mass_drift",
                self.max_drift <= MASS_DRIFT_TOL,
                f"max rel drift {self.max_drift:.2e} (tol {MASS_DRIFT_TOL:g})",
            ),
        ]


class CosimStep(Workload):
    """One co-simulated full RK step, f32, 2 CUs, block size 32."""

    name = "cosim_step"
    work_unit = "node-DOF"

    def _cosim(self, verify: bool):
        return cosim_module.cosimulate_rk_stage(
            self.design,
            self.mesh,
            backend=self.payload_backend,
            initial_state=self.state0,
            block_size=self.size["block_size"],
            num_cus=self.size["num_cus"],
            partitions=self.point.element_partitions(),
            node_block_size=32,
            engine="vectorized",
            num_workers=1,
            dtype="float32",
            verify=verify,
        )

    def setup(self) -> None:
        size = self.size
        with self.tracer.span("mesh.build"):
            self.mesh = periodic_box_mesh(size["elements"], size["order"])
        with self.tracer.span("accel.design"):
            self.design = custom_design(
                replace(
                    PROPOSED_OPTIONS,
                    name=f"perfbench-p{size['order']}",
                    polynomial_order=size["order"],
                )
            )
        self.point = DesignPoint(
            polynomial_order=size["order"],
            elements_per_direction=size["elements"],
            block_size=size["block_size"],
            num_cus=size["num_cus"],
            precision="float32",
        )
        self.state0 = seeded_tgv_state(self.mesh, self.seed)
        self.payload_backend = self.backend("float32")
        self._cosim(verify=False)

    def prepare(self) -> None:
        self.verified = self._cosim(verify=True)
        self.expected = self.verified.final_state.as_stacked()
        self.mismatches = 0

    def op(self):
        start = time.perf_counter()
        result = self._cosim(verify=False)
        return time.perf_counter() - start, result

    def op_ok(self, result) -> bool:
        same = np.array_equal(result.final_state.as_stacked(), self.expected)
        self.mismatches += not same
        return bool(same)

    def work(self, result) -> float:
        return 5.0 * result.final_state.num_nodes * result.num_steps

    def checks(self):
        err = self.verified.state_max_rel_err
        stages = self.verified.per_stage_rkl_cycles
        cosim_cycles = (
            sum(stages) / len(stages) * self.verified.num_stages
            + self.verified.rku_simulated_cycles
        )
        exact = tiers_module.evaluate_point(self.point, "exact").step_cycles
        disagreement = abs(cosim_cycles - exact) / max(cosim_cycles, exact)
        bound = tiers_module.TIER_AGREEMENT_BOUNDS["cosim"]
        return [
            (
                "bitwise_repeat",
                self.mismatches == 0,
                f"{self.mismatches} timed call(s) differ from the verified "
                "call's state",
            ),
            (
                "f32_parity",
                err is not None and err <= F32_PARITY_TOL,
                f"verify=True rel err {err:.2e} (tol {F32_PARITY_TOL:g})",
            ),
            (
                "exact_tier_agreement",
                disagreement <= bound,
                f"cycles {cosim_cycles:.0f} vs exact {exact:.0f} "
                f"({disagreement:.2e}, bound {bound:g})",
            ),
        ]


def draw_campaign(rng, size: dict, index: int) -> CampaignSpec:
    """A seeded random sub-grid of the full design space.

    The axes that set the pricing cost per point (order, mesh size,
    block size, step count) are fixed; fusion, the third CU count and
    precision are drawn. Every draw has the same point count (1200
    feasible at full size): the third CU count (3 or 4) is feasible
    only on the 4-SLR ``hbm`` device.
    """

    def pick(values, k):
        chosen = rng.choice(len(values), size=k, replace=False)
        return tuple(values[i] for i in sorted(chosen))

    axes = (
        ("polynomial_order", size["dse_orders"]),
        ("elements_per_direction", size["dse_elements"]),
        ("block_size", size["dse_blocks"]),
        ("num_cus", (1, 2, pick((3, 4), 1)[0])),
        ("device", ("u200", "hbm")),
        ("fusion", pick(FUSIONS, 2)),
        ("partition", ("balanced", "contiguous")),
        ("num_steps", (1,)),
        ("precision", pick(("float64", "float32", "mixed"), 1)),
        ("case", ("tgv", "channel")),
    )
    return CampaignSpec(
        name=f"perfbench-{index}",
        axes=axes,
        max_survivors=8,
        max_cosim=4,
        backend="fast",
        cosim_verify=False,
    )


def _campaign_view(result) -> list:
    """Everything a campaign priced, for cold/warm identity checks."""
    return [
        [r.to_dict() for r in tier]
        for tier in (result.results, result.front, result.survivors, result.cosim)
    ] + [[check.to_dict() for check in result.agreement]]


def _directory_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path))


class DSESweep(Workload):
    """Full-ladder campaigns over seeded sub-grids, cold then warm."""

    name = "dse_sweep"
    work_unit = "points"
    calibration = "interpreter"
    #: Which of the two calls the operation's time is: ``"cold"`` or
    #: ``"warm"``.
    timed = "cold"
    #: Warm re-runs (one per operation) against each cold call's cache;
    #: odd, so that alternately traced operations trace cold calls too.
    warm_repeats = 1

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rng = np.random.default_rng(self.seed)
        self.workers = min(2, os.cpu_count() or 1)
        self.draws = 0
        self.samples: list[dict[str, float]] = []
        self.grid_points: list[int] = []
        self.check_failures = Counter()
        #: The campaign whose cache the next warm re-run reads.
        self.current: dict | None = None

    def setup(self) -> None:
        spec = draw_campaign(np.random.default_rng(self.seed), self.size, 0)
        with self.tracer.span("dse.expand"):
            points, _ = spec.expand()
        # Designs are built once per (order, device) and cached for the
        # process; start each set-up from an empty cache so every
        # repetition pays the elaboration it measures.
        tiers_module._DESIGN_CACHE.clear()
        with self.tracer.span("dse.prewarm"):
            tiers_module.prewarm_designs(points)

    def _campaign(self, spec, directory: str, label: str):
        base = self.tracer.op
        self.tracer.op = f"{base}.{label}"
        try:
            cache = ResultCache(directory)
            with self.tracer.span(f"dse.campaign.{label}"):
                start = time.perf_counter()
                result = run_campaign(
                    spec,
                    workers=self.workers,
                    cache=cache,
                    highest_tier="cosim",
                    chunk_size=32,
                )
                elapsed = time.perf_counter() - start
        finally:
            self.tracer.op = base
        return elapsed, result, cache

    def op(self):
        if self.current is None:
            self.draws += 1
            spec = draw_campaign(self.rng, self.size, self.draws)
            directory = tempfile.mkdtemp(prefix="dse-", dir=self.work_dir)
            cold_s, cold, cache = self._campaign(spec, directory, "cold")
            self.current = {
                "spec": spec,
                "directory": directory,
                "cold_s": cold_s,
                "cold": cold,
                "cold_cache": cache,
                "cold_bytes": _directory_bytes(directory),
                "warm_left": self.warm_repeats,
                "traced_cold": self.tracer.active,
            }
        current = self.current
        warm_s, warm, warm_cache = self._campaign(
            current["spec"], current["directory"], "warm"
        )
        current["warm_left"] -= 1
        if current["warm_left"] == 0:
            shutil.rmtree(current["directory"], ignore_errors=True)
            self.current = None
        if self.tracer.active:
            self._record_layers(current, warm, warm_cache)
        outcome = (current["cold"], warm, warm_cache.stats.hit_rate)
        if self.timed == "cold":
            return current["cold_s"], outcome
        return warm_s, outcome

    def op_ok(self, outcome) -> bool:
        cold, warm, warm_hit_rate = outcome
        failed = {
            "agreement": bool(cold.violations),
            "quarantine": bool(cold.failures or warm.failures),
            "warm_identical": _campaign_view(cold) != _campaign_view(warm),
            "warm_hit_rate": warm_hit_rate != 1.0,
        }
        for check, bad in failed.items():
            self.check_failures[check] += bad
        return not any(failed.values())

    def checks(self):
        details = {
            "agreement": "campaign(s) with tier-agreement violations",
            "quarantine": "campaign(s) with quarantined points",
            "warm_identical": "warm re-run(s) differing from the cold run",
            "warm_hit_rate": "warm re-run(s) with a cache hit rate below 1",
        }
        return [
            (check, self.check_failures[check] == 0,
             f"{self.check_failures[check]} {detail}")
            for check, detail in details.items()
        ]

    def work(self, outcome) -> float:
        return float(len(outcome[0].results))

    def _record_layers(self, current: dict, warm, warm_cache) -> None:
        """Pool/cache accounting plus, after a traced cold call, an
        in-process tier replay."""
        cold = current["cold"]
        pool = cold.supervision
        sample = {
            f"dse.pool.{name}": float(getattr(pool, name))
            for name in ("dispatched", "retries", "respawns", "timeouts", "quarantined")
        }
        for label, cache in (
            ("cold", current["cold_cache"]),
            ("warm", warm_cache),
        ):
            sample[f"dse.cache.{label}.writes"] = float(cache.stats.writes)
            sample[f"dse.cache.{label}.hit_rate"] = cache.stats.hit_rate
        sample["dse.cache.cold.bytes"] = float(current["cold_bytes"])
        # The warm call reads what the cold call wrote.
        sample["dse.cache.warm.bytes"] = float(current["cold_bytes"])
        sample["dse.promoted_frac"] = len(cold.survivors) / len(cold.results)
        self.samples.append(sample)
        if not current.pop("traced_cold", False):
            return
        self.grid_points.append(len(cold.results))
        # The grid tier runs in pool workers, out of the tracer's reach:
        # replay an evenly spaced sample of each tier's points here.
        base = self.tracer.op
        self.tracer.op = f"{base}.replay"
        grid = [r.point for r in cold.results]
        stride = max(1, len(grid) // self.size["replay_points"])
        replays = {
            "closed-form": grid[::stride],
            "exact": [r.point for r in cold.survivors],
            "cosim": [r.point for r in cold.cosim],
        }
        try:
            for tier, points in replays.items():
                for point in points:
                    with self.tracer.span(f"dse.tier.{tier}"):
                        tiers_module.evaluate_point(
                            point, tier, backend="fast", num_workers=1,
                            verify=False,
                        )
        finally:
            self.tracer.op = base

    def layer_metrics(self, traced_ops: int):
        tracer = self.tracer
        out = {
            key: sum(s[key] for s in self.samples) / len(self.samples)
            for key in self.samples[0]
        }
        cold = tracer.totals(lambda op: op.endswith(".cold"))
        replay = tracer.totals(lambda op: op.endswith(".replay"))
        for tier in tiers_module.TIERS:
            entry = replay.get(f"dse.tier.{tier}")
            out[f"dse.tier.{tier}.s_per_point"] = (
                entry.seconds / entry.calls if entry else 0.0
            )
        # Cold-call layers are per traced cold call.
        colds = len(self.grid_points)
        if colds:
            grid_s = cold["dse.grid"].seconds / colds
            points = sum(self.grid_points) / colds
            busy = out["dse.tier.closed-form.s_per_point"] * points
            out["dse.grid.s"] = grid_s
            out["dse.pareto.s"] = cold["dse.pareto"].seconds / colds
            out["dse.pool.efficiency"] = busy / (self.workers * grid_s)
        return out

    def close(self) -> None:
        if self.current is not None:
            shutil.rmtree(self.current["directory"], ignore_errors=True)


class DSESweepWarm(DSESweep):
    """The same campaigns, timing warm re-runs (cache reads only)."""

    name = "dse_sweep_warm"
    timed = "warm"
    warm_repeats = 3


WORKLOADS = {
    cls.name: cls for cls in (TGVStep, CosimStep, DSESweep, DSESweepWarm)
}
