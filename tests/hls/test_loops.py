"""Loop-nest IR."""

import pytest

from repro.errors import HLSError
from repro.hls.loops import ArrayAccess, LoopNest


class TestLoopNest:
    def test_depth_estimated_from_op_mix(self):
        loop = LoopNest(
            name="l", trip_count=10, ops_per_iter={"fadd": 2, "fmul": 3}
        )
        # chain = fadd(7) + fmul(4) + 1 control
        assert loop.estimated_depth() == 12

    def test_explicit_depth_wins(self):
        loop = LoopNest(
            name="l", trip_count=10, ops_per_iter={"fadd": 2}, depth=40
        )
        assert loop.estimated_depth() == 40

    def test_zero_count_ops_add_no_depth(self):
        loop = LoopNest(
            name="l", trip_count=10, ops_per_iter={"fadd": 2, "fmul": 0}
        )
        # chain = fadd(7) + 1 control; the absent fmul adds nothing
        assert loop.estimated_depth() == 8

    def test_empty_body_depth_is_loop_control(self):
        assert LoopNest(name="l", trip_count=3).estimated_depth() == 1

    def test_access_total_per_iter(self):
        acc = ArrayAccess("a", reads_per_iter=2, writes_per_iter=1)
        assert acc.total_per_iter == 3

    def test_unknown_op_rejected(self):
        with pytest.raises(HLSError):
            LoopNest(name="l", trip_count=1, ops_per_iter={"fbogus": 1})

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(HLSError):
            LoopNest(name="l", trip_count=1, depth=0)

    def test_duplicate_access_rejected(self):
        with pytest.raises(HLSError):
            LoopNest(
                name="l",
                trip_count=1,
                accesses=[
                    ArrayAccess("a", reads_per_iter=1),
                    ArrayAccess("a", writes_per_iter=1),
                ],
            )

    def test_invalid_values_rejected(self):
        with pytest.raises(HLSError):
            LoopNest(name="l", trip_count=0)
        with pytest.raises(HLSError):
            LoopNest(name="l", trip_count=1, recurrence_ii=0)
        with pytest.raises(HLSError):
            ArrayAccess("a", reads_per_iter=-1)
