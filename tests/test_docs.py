"""Docs integrity: README references and example smoke coverage.

The expensive half of the docs gate (actually executing every example)
runs in CI via ``tools/smoke_examples.py``; these tier-1 tests keep the
cheap invariants — README points at real files, every example has a
registered smoke command — enforced on every local run too.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_smoke_module():
    spec = importlib.util.spec_from_file_location(
        "smoke_examples", REPO_ROOT / "tools" / "smoke_examples.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_exists_and_references_resolve():
    smoke = _load_smoke_module()
    assert (REPO_ROOT / "README.md").exists(), "root README.md is missing"
    missing = smoke.check_readme()
    assert not missing, f"README.md references missing files: {missing}"


def test_readme_maps_every_package():
    """The package map must cover every repro subpackage."""
    text = (REPO_ROOT / "README.md").read_text()
    packages = sorted(
        p.parent.name
        for p in (REPO_ROOT / "src" / "repro").glob("*/__init__.py")
    )
    unmapped = [pkg for pkg in packages if f"repro.{pkg}" not in text]
    assert not unmapped, f"README package map is missing: {unmapped}"


def test_every_example_has_smoke_args():
    smoke = _load_smoke_module()
    scripts = sorted(p.name for p in (REPO_ROOT / "examples").glob("*.py"))
    unregistered = [s for s in scripts if s not in smoke.SMOKE_ARGS]
    assert not unregistered, (
        f"examples without smoke args in tools/smoke_examples.py: "
        f"{unregistered} — register them so CI covers them"
    )


def test_every_documented_example_flag_exists():
    """Docs must never advertise a --flag an example rejects."""
    smoke = _load_smoke_module()
    failures = smoke.check_example_flags()
    assert not failures, f"documented flags missing from argparsers: {failures}"


def test_dse_campaign_example_declares_sweep_controls():
    """The campaign example must expose the worker/tier controls the
    docs and CI rely on."""
    smoke = _load_smoke_module()
    declared = smoke.example_declared_flags(
        REPO_ROOT / "examples" / "dse_campaign.py"
    )
    for flag in ("--workers", "--tier", "--cache-dir", "--json"):
        assert flag in declared, f"dse_campaign.py lost its {flag} flag"


def test_architecture_documents_the_dse_engine():
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text()
    for needle in (
        "Design-space exploration",
        "run_campaign",
        "ResultCache",
        "pareto_front",
        "exact_rkl_stage_cycles",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"


def test_architecture_documents_why_kernel_sharding_was_removed():
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text()
    assert "Kernel sharding was removed because it lost" in text, (
        "ARCHITECTURE.md lost its note on the removed parallel backends"
    )


def test_readme_documents_environment_variables():
    """The env-var table must cover the backend- and precision-selection
    knobs."""
    text = (REPO_ROOT / "README.md").read_text()
    assert "## Environment variables" in text, (
        "README.md lost its environment-variable table"
    )
    for needle in ("REPRO_BACKEND", "REPRO_DTYPE"):
        assert needle in text, f"README.md env-var table lost {needle!r}"


def test_architecture_documents_the_grid_miss_path():
    """Each cold grid miss is priced, keyed and encoded once."""
    text = " ".join((REPO_ROOT / "ARCHITECTURE.md").read_text().split())
    for needle in (
        "The closed-form tier prices each distinct input once, through the "
        "design's price table",
        "A miss is keyed once",
        "Record text is shared, and exact.",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"


def test_architecture_documents_the_shared_cosim_pool():
    """One cosim pool per process, and the rule that re-forks it."""
    text = " ".join((REPO_ROOT / "ARCHITECTURE.md").read_text().split())
    for needle in (
        "**One pool per process.**",
        "The pool is forked once per process and reused by every later "
        "campaign",
        "the pool is re-forked when any of that changes: the width, the "
        "installed fault plan (compared by identity), the backend registry "
        "(its `(name, factory)` items",
        "or the `set_schedule_cache` switch",
        "forks a worker only when a run has a batch for it",
        "respawns any worker that died while idle",
        "**Forked children.**",
        "removes the pool workers from `multiprocessing`'s child set",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"


def test_architecture_documents_the_precision_modes():
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text()
    for needle in (
        "Precision modes",
        "PrecisionPolicy",
        "REPRO_DTYPE",
        "error_growth_report",
        "accumulate_for",
        "DesignPoint.precision",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"


def test_architecture_documents_the_fast_backend():
    """The ``"fast"`` paragraph must keep the layout rules its bitwise
    guarantees rest on."""
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text()
    for needle in (
        "fixed-shape per-element GEMMs",
        "KRON_ETA_MAX_N1",
        "η cutoff",
        "direction-major",
        "never folded into GEMM rows",
        "test_backend_block_invariance.py",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"


def test_architecture_documents_the_execution_caches():
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text()
    for needle in (
        "Execution caches & the verify switch",
        "single_pass_net_flux",
        "Blocked residual",
        "run_blocked_pipeline",
        "BLOCK_PAYLOAD_BYTES",
        "set_schedule_cache",
        "schedule_cache_stats",
        "CampaignSpec.backend",
        "cosim_verify",
        "verify=True",
        "HexMesh.derived(name, build)",
        "mesh is never mutated after construction",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"


def test_readme_documents_the_cosim_fast_path_knobs():
    """The front door must advertise the verify switch and the campaign
    backend routing that buy the PR-9 floor."""
    text = (REPO_ROOT / "README.md").read_text()
    for needle in ("--no-verify", "cosim_verify", 'backend="fast"'):
        assert needle in text, f"README.md lost its {needle!r} coverage"


def test_architecture_documents_fault_tolerance():
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text()
    for needle in (
        "Fault tolerance & campaign checkpointing",
        "SupervisedPool",
        "RetryPolicy",
        "quarantine",
        "resume=True",
        "CheckpointError",
        "repro.testing",
        "seeded_contexts",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"


def test_readme_documents_fault_tolerance():
    """The front door must advertise the resume/retry knobs and the
    structured-failure contract."""
    text = (REPO_ROOT / "README.md").read_text()
    for needle in (
        "resume=True",
        "RetryPolicy",
        "result.failures",
        "--resume",
        "repro.testing",
        "BENCH_pr10.json",
    ):
        assert needle in text, f"README.md lost its {needle!r} coverage"


def test_dse_campaign_example_declares_fault_controls():
    smoke = _load_smoke_module()
    declared = smoke.example_declared_flags(
        REPO_ROOT / "examples" / "dse_campaign.py"
    )
    for flag in ("--resume", "--retries", "--batch-timeout"):
        assert flag in declared, f"dse_campaign.py lost its {flag} flag"


def test_architecture_documents_the_cosim_extension():
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text()
    for needle in (
        "Batched & multi-CU co-simulation",
        "analytic_block_cycles",
        "design_timing_from_rk_cosim",
        "merge_graphs",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"


def test_architecture_documents_the_step_plan():
    text = " ".join((REPO_ROOT / "ARCHITECTURE.md").read_text().split())
    for needle in (
        "The step plan: set up once, run per call",
        "`accel.cosim._StepPlan`",
        "`dtype=None` reads `REPRO_DTYPE` on every call",
        "Each thread keeps its last plan, one entry, in a `threading.local`",
        "a run that raises drops its thread's plan",
        "`dse.tiers._shared_mesh`",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"


def test_architecture_documents_one_job_per_engine():
    """Two engines, no automatic pick between them."""
    text = " ".join((REPO_ROOT / "ARCHITECTURE.md").read_text().split())
    for needle in (
        'engine="event" | "vectorized"',
        "every action has a `batch` form, and every buffer joins either "
        "two actionless tasks or two action tasks with equal iteration "
        "counts",
    ):
        assert needle in text, f"ARCHITECTURE.md lost its {needle!r} coverage"
    for stale in ('"auto"', "4096 total tokens", "AUTO_TOKEN_THRESHOLD"):
        assert stale not in text, f"ARCHITECTURE.md still mentions {stale!r}"
