"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation
(see DESIGN.md Section 4 for the index) and records the headline numbers
in ``benchmark.extra_info`` so the JSON output carries the
paper-vs-measured comparison.

Every ``BENCH_*.json`` artifact written during a session is additionally
stamped with a ``"machine"`` record (core count, resolved backend,
platform, python) so perf trajectories compared across CI
runners and local machines carry the context needed to interpret them.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.accel.designs import proposed_design, vitis_baseline_design
from repro.backend import resolve_backend_name

BENCH_DIR = Path(__file__).resolve().parent


@pytest.fixture(scope="session")
def proposed():
    return proposed_design()


@pytest.fixture(scope="session")
def vitis():
    return vitis_baseline_design()


def bench_machine_info() -> dict:
    """Execution context recorded into every BENCH json artifact."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "backend": resolve_backend_name(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def pytest_sessionstart(session):
    session.config._bench_session_start = time.time()


def pytest_sessionfinish(session, exitstatus):
    """Stamp the machine record into artifacts written this session."""
    start = getattr(session.config, "_bench_session_start", None)
    if start is None:
        return
    info = bench_machine_info()
    for artifact in sorted(BENCH_DIR.glob("BENCH_*.json")):
        if artifact.stat().st_mtime < start:
            continue  # stale artifact from an earlier run
        try:
            payload = json.loads(artifact.read_text())
        except (OSError, json.JSONDecodeError):  # pragma: no cover
            continue
        if not isinstance(payload, dict):  # pragma: no cover
            continue
        payload["machine"] = info
        artifact.write_text(json.dumps(payload, indent=2) + "\n")
