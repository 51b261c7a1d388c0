"""Payload freshness of the single-pass net-flux kernel.

A flux payload travels the dataflow graph: under the streaming
co-simulation one block's flux can still be in flight while the next
block's is computed. Every ``combined_flux`` call must therefore return
a freshly allocated array that no later call writes, whatever block
sizes the calls interleave.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import get_backend
from repro.mesh.hexmesh import periodic_box_mesh
from repro.physics.taylor_green import DEFAULT_TGV, taylor_green_initial
from repro.pipeline.ir import Stage
from repro.pipeline.kernels import PipelineContext, pipeline_kernel
from repro.solver.navier_stokes import NavierStokesOperator

STAGE = Stage(
    "flux",
    role="compute",
    kernel="combined_flux",
    inputs=("state_elem",),
    outputs=("flux",),
)
#: Blocks of 1, 17, the whole 27-element mesh and 9 elements, ids out of
#: order in the last.
BLOCKS = (
    np.arange(1),
    np.arange(1, 18),
    np.arange(27),
    np.arange(26, 17, -1),
)


@pytest.fixture(scope="module", params=("float64", "float32"))
def flux_setup(request):
    mesh = periodic_box_mesh(3, 2)
    op = NavierStokesOperator(
        mesh,
        DEFAULT_TGV.gas(),
        backend="fast",
        fusion="full",
        dtype=request.param,
    )
    state = taylor_green_initial(mesh.coords, DEFAULT_TGV).as_stacked()
    return PipelineContext.from_operator(op), state.astype(request.param)


def net_flux(ctx: PipelineContext, state: np.ndarray) -> np.ndarray:
    state_elem = ctx.backend.gather(state, ctx.connectivity)
    return pipeline_kernel("combined_flux")(ctx, STAGE, state_elem)[0]


def test_consecutive_calls_return_distinct_payloads(flux_setup):
    ctx, state = flux_setup
    first = net_flux(ctx, state)
    snapshot = first.copy()
    second = net_flux(ctx, state * state.dtype.type(1.25))
    assert not np.shares_memory(first, second)
    assert not np.array_equal(first, second)
    assert np.array_equal(first, snapshot)


def test_interleaved_block_sizes_match_isolated_calls(flux_setup):
    ctx, state = flux_setup
    isolated = []
    for block in BLOCKS:
        fresh = replace(ctx, backend=get_backend("fast", precision=state.dtype.name))
        isolated.append(net_flux(fresh.element_block(block), state))
    # Every payload stays alive until all calls are done, so a call that
    # wrote into an earlier payload would show here.
    interleaved = [
        net_flux(ctx.element_block(block), state) for block in BLOCKS + BLOCKS
    ]
    for got, want in zip(interleaved, isolated + isolated):
        assert np.array_equal(got, want)
