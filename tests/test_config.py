"""Unit helpers and the paper's mesh node counts."""

import pytest

from repro.config import (
    PAPER_CPU_COMPARISON_NODES,
    PAPER_FIG2_NODE_COUNTS,
    PAPER_FIG5_NODE_COUNTS,
    seconds_from_cycles,
)
from repro.errors import ConfigurationError


class TestUnits:
    def test_seconds_from_cycles(self):
        assert seconds_from_cycles(1_000_000, 100e6) == pytest.approx(0.01)

    def test_invalid_frequency(self):
        with pytest.raises(ConfigurationError):
            seconds_from_cycles(10, 0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ConfigurationError, match="-1"):
            seconds_from_cycles(10, -1.0)

    def test_zero_cycles_take_no_time(self):
        assert seconds_from_cycles(0, 300e6) == 0.0

    def test_returns_a_python_float(self):
        assert type(seconds_from_cycles(3, 2)) is float


def test_paper_node_counts_constant():
    assert PAPER_FIG5_NODE_COUNTS[0] == 5_000
    assert PAPER_FIG5_NODE_COUNTS[-1] == 4_200_000
    assert len(PAPER_FIG5_NODE_COUNTS) == 6


def test_fig5_node_counts_ascend():
    assert list(PAPER_FIG5_NODE_COUNTS) == sorted(set(PAPER_FIG5_NODE_COUNTS))


def test_fig2_node_counts_span_one_to_four_million():
    assert PAPER_FIG2_NODE_COUNTS == (1_000_000, 2_000_000, 3_000_000, 4_000_000)


def test_cpu_comparison_uses_the_largest_fig5_mesh():
    assert PAPER_CPU_COMPARISON_NODES == PAPER_FIG5_NODE_COUNTS[-1]
