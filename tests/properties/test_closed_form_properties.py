"""The closed-form cycle laws against the tandem recurrence (hypothesis).

:func:`~repro.accel.cosim.analytic_block_cycles` and
:func:`~repro.accel.cosim.analytic_rku_step_cycles` price a chain of
tasks streaming uniform blocks with one short tail in O(tasks). The
token-by-token recurrence they replace,
``finish(t, i) = max(finish(t, i-1), finish(t-1, i)) + c_t * b_i``,
lives here only, as their oracle.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.cosim import analytic_block_cycles, analytic_rku_step_cycles
from repro.errors import ExperimentError


def recurrence(role_cycles, block_sizes):
    """The tandem-pipeline recurrence, one token at a time."""
    finish = [0.0] * len(role_cycles)
    for size in block_sizes:
        upstream = 0.0
        for task, cycles in enumerate(role_cycles):
            finish[task] = max(finish[task], upstream) + cycles * size
            upstream = finish[task]
    return finish[-1]


class ChainDesign:
    """The design surface the closed forms read, over arbitrary roles."""

    def __init__(self, role_cycles, fill=0.0):
        self.options = SimpleNamespace(element_dataflow=True)
        self._roles = {f"t{i}": c for i, c in enumerate(role_cycles)}
        self._fill = fill
        # The closed forms memoize through the design's price table.
        self._prices = {}

    def rkl_element_cycles(self, num_nodes):
        return dict(self._roles)

    def rku_node_cycles(self, num_nodes):
        return dict(self._roles)

    def rku_fill_cycles(self):
        return self._fill


@st.composite
def streams(draw):
    """(role cycles, item count, block size): <=6 tasks, <=600 tokens,
    B in {1, 8, 32, 68}, any tail."""
    roles = draw(
        st.lists(
            st.floats(min_value=0.125, max_value=5000.0),
            min_size=1,
            max_size=6,
        )
    )
    block = draw(st.sampled_from((1, 8, 32, 68)))
    tokens = draw(st.integers(min_value=1, max_value=600))
    tail = draw(st.integers(min_value=1, max_value=block))
    return roles, (tokens - 1) * block + tail, block


def blocks(count, block):
    full, tail = divmod(count, block)
    return [block] * full + ([tail] if tail else [])


@given(stream=streams())
@settings(max_examples=300, deadline=None)
def test_rkl_closed_form_matches_recurrence(stream):
    roles, count, block = stream
    expected = recurrence(roles, blocks(count, block))
    got = analytic_block_cycles(ChainDesign(roles), 1, count, block)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@given(stream=streams(), fill=st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=300, deadline=None)
def test_rku_closed_form_matches_recurrence(stream, fill):
    roles, count, block = stream
    expected = fill + recurrence(roles, blocks(count, block))
    got = analytic_rku_step_cycles(ChainDesign(roles, fill), count, block)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_real_designs_match_recurrence(proposed, vitis):
    for design in (proposed, vitis):
        for count, block in ((1, 1), (27, 4), (64, 1), (100, 32)):
            roles = list(design.rkl_element_cycles(500).values())
            law = analytic_block_cycles(design, 500, count, block)
            if design.options.element_dataflow:
                expected = recurrence(roles, blocks(count, block))
            else:
                expected = design.rkl_element_ii(500) * count
            assert law == pytest.approx(expected, rel=1e-12)
            rku = list(design.rku_node_cycles(count).values())
            assert analytic_rku_step_cycles(
                design, count, block
            ) == pytest.approx(
                design.rku_fill_cycles() + recurrence(rku, blocks(count, block)),
                rel=1e-12,
            )


@pytest.mark.parametrize("count, block", [(0, 4), (4, 0)])
def test_invalid_counts_raise(proposed, count, block):
    with pytest.raises(ExperimentError):
        analytic_block_cycles(proposed, 100, count, block)
    with pytest.raises(ExperimentError):
        analytic_rku_step_cycles(proposed, count, block)
