"""Shared fixtures.

Design construction and meshes are session-scoped: they are deterministic
pure functions of the library's constants, and many tests only read them.

The process's shared cosim pool is closed around every test: its workers
keep whatever code and state they inherited at their fork, so a test
that monkeypatches code the workers run must start from fresh workers,
and must not leave its patch behind in workers a later test reuses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.designs import (
    AcceleratorDesign,
    proposed_design,
    vitis_baseline_design,
)
from repro.dse.pool import close_shared_pool
from repro.fem.reference import reference_hex
from repro.mesh.hexmesh import HexMesh, box_mesh, periodic_box_mesh
from repro.physics.taylor_green import DEFAULT_TGV, TGVCase


@pytest.fixture(scope="session")
def small_periodic_mesh() -> HexMesh:
    """3^3-element periodic TGV mesh (216 nodes at order 2)."""
    return periodic_box_mesh(3, 2)


@pytest.fixture(scope="session")
def medium_periodic_mesh() -> HexMesh:
    """4^3-element periodic TGV mesh (512 nodes at order 2)."""
    return periodic_box_mesh(4, 2)


@pytest.fixture(scope="session")
def small_box_mesh() -> HexMesh:
    """Non-periodic 3^3 box mesh (343 nodes at order 2)."""
    return box_mesh(3, 2)


@pytest.fixture(scope="session")
def order3_mesh() -> HexMesh:
    """Periodic mesh at polynomial order 3 (27-point GLL per direction)."""
    return periodic_box_mesh(2, 3)


@pytest.fixture(scope="session")
def ref2():
    """Reference hex of order 2 (the paper's 27-node element)."""
    return reference_hex(2)


@pytest.fixture(scope="session")
def tgv_case() -> TGVCase:
    """Default TGV parameters (Ma 0.1, Re 1600)."""
    return DEFAULT_TGV


@pytest.fixture(scope="session")
def proposed() -> AcceleratorDesign:
    """The paper's proposed accelerator design."""
    return proposed_design()


@pytest.fixture(scope="session")
def vitis() -> AcceleratorDesign:
    """The Vitis-HLS auto-optimized baseline design."""
    return vitis_baseline_design()


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic RNG for randomized-but-reproducible tests."""
    return np.random.default_rng(20250611)


@pytest.fixture(autouse=True)
def _fresh_cosim_pool():
    """Start and end every test without a live shared cosim pool."""
    close_shared_pool()
    yield
    close_shared_pool()
