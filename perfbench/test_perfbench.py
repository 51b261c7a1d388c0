"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.run import (
    END_TO_END,
    WORKLOAD_NAMES,
    _per_layer_units,
    run_workload,
)
from perfbench.workloads import (
    WORKLOADS,
    draw_campaign,
    health_ok,
    seeded_tgv_state,
    SIZES,
)
from repro.mesh.hexmesh import periodic_box_mesh
from repro.physics.gas import GasProperties

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

CHECKS = {
    "tgv_p3": {"health", "reference_prefix", "mass_drift"},
    "cosim_step": {"bitwise_repeat", "f32_parity", "exact_tier_agreement"},
    "dse_sweep": {"agreement", "quarantine", "warm_identical", "warm_hit_rate"},
    "dse_sweep_warm": {
        "agreement",
        "quarantine",
        "warm_identical",
        "warm_hit_rate",
    },
}


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert WORKLOAD_NAMES == tuple(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    } == _per_layer_units()


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_and_runs_every_check(
    name, trace, tmp_path
):
    report = run_workload(
        name, seed=3, seconds=0.2, trace=trace, size="tiny", out_dir=tmp_path
    )
    units = _per_layer_units() if trace else END_TO_END
    assert set(report["metrics"]) == set(units)
    assert all(math.isfinite(v) for v in report["metrics"].values())
    assert {check for check, _, _ in report["checks"]} == CHECKS[name]
    assert report["correct"], report["checks"]
    assert report["failed"] == 0 and report["attempted"] >= 2
    if trace:
        trace_file = json.loads(Path(report["trace_file"]).read_text())
        assert trace_file["traceEvents"]
        assert {e["ph"] for e in trace_file["traceEvents"]} == {"X"}
        assert trace_file["otherData"]["seed"] == 3
    else:
        assert all(v > 0 for v in report["metrics"].values())


def test_tgv_self_times_account_for_the_step(tmp_path):
    report = run_workload(
        "tgv_p3", seed=5, seconds=0.5, trace=True, size="tiny", out_dir=tmp_path
    )
    overhead = max(abs(report["metrics"]["trace.overhead_frac"]), 0.02)
    assert 1.0 - overhead <= report["self_coverage"] <= 1.0 + 1e-9
    names = {span for span, _ in report["self_breakdown"]}
    assert {"solver.run", "solver.step", "pipeline.combined_flux"} <= names
    assert report["metrics"]["physics.pointwise.s"] > 0


def test_instrumentation_is_removed_after_a_traced_run(tmp_path):
    from repro.pipeline import PIPELINE_KERNELS
    from repro.solver.simulation import Simulation

    kernels = dict(PIPELINE_KERNELS)
    step = Simulation.step
    run_workload(
        "tgv_p3", seed=1, seconds=0.1, trace=True, size="tiny", out_dir=tmp_path
    )
    assert PIPELINE_KERNELS == kernels
    assert Simulation.step is step


def test_inputs_are_seeded():
    mesh = periodic_box_mesh(2, 2)
    a = seeded_tgv_state(mesh, 7).as_stacked()
    assert np.array_equal(a, seeded_tgv_state(mesh, 7).as_stacked())
    assert not np.array_equal(a, seeded_tgv_state(mesh, 8).as_stacked())
    spec = draw_campaign(np.random.default_rng(7), SIZES["full"], 1)
    again = draw_campaign(np.random.default_rng(7), SIZES["full"], 1)
    assert spec == again
    points, _ = spec.expand()
    assert len(points) == 1200


def test_health_check_flags_an_unphysical_state():
    state = seeded_tgv_state(periodic_box_mesh(2, 2), 1)
    gas = GasProperties()
    assert health_ok(state, gas)
    state.rho[0] = -1.0
    assert not health_ok(state, gas)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = [sys.executable, *SPEC["command"][1:]]
    result = subprocess.run(
        command + ["--workload", "tgv_p3", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout
