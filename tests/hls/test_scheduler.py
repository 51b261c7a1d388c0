"""Loop scheduling: II and latency under directives."""

import pytest

from repro.errors import HLSError
from repro.hls.arrays import ArraySpec
from repro.hls.directives import (
    ArrayPartitionDirective,
    DirectiveSet,
    PipelineDirective,
    UnrollDirective,
)
from repro.hls.loops import ArrayAccess, LoopNest
from repro.hls.scheduler import (
    port_limited_ii,
    port_limiting_arrays,
    schedule_loop,
)


def simple_loop(**kwargs):
    defaults = dict(
        name="l", trip_count=32, ops_per_iter={"fadd": 4.0}, depth=10
    )
    defaults.update(kwargs)
    return LoopNest(**defaults)


class TestPipelined:
    def test_latency_formula(self):
        sched = schedule_loop(
            simple_loop(), DirectiveSet(pipeline=PipelineDirective())
        )
        assert sched.achieved_ii == 1
        assert sched.latency == 10 + 1 * 31

    def test_recurrence_bounds_ii(self):
        loop = simple_loop(recurrence_ii=9)
        sched = schedule_loop(loop, DirectiveSet(pipeline=PipelineDirective()))
        assert sched.achieved_ii == 9
        assert sched.limiting_factor == "recurrence"

    def test_port_conflicts_bound_ii(self):
        loop = simple_loop(
            accesses=[ArrayAccess("arr", reads_per_iter=8)]
        )
        arrays = {"arr": ArraySpec(name="arr", words=128)}
        sched = schedule_loop(
            loop, DirectiveSet(pipeline=PipelineDirective()), arrays
        )
        assert sched.achieved_ii == 4  # ceil(8 / 2 ports)
        assert sched.limiting_factor == "ports:arr"

    def test_partitioning_relieves_ports(self):
        loop = simple_loop(accesses=[ArrayAccess("arr", reads_per_iter=8)])
        arrays = {"arr": ArraySpec(name="arr", words=128)}
        ds = DirectiveSet(pipeline=PipelineDirective())
        ds.add_partition(ArrayPartitionDirective(array="arr", factor=4))
        sched = schedule_loop(loop, ds, arrays)
        assert sched.achieved_ii == 1

    def test_target_ii_floor(self):
        sched = schedule_loop(
            simple_loop(), DirectiveSet(pipeline=PipelineDirective(target_ii=3))
        )
        assert sched.achieved_ii == 3
        assert sched.limiting_factor == "target"


class TestUnroll:
    def test_unroll_divides_trips(self):
        ds = DirectiveSet(
            pipeline=PipelineDirective(), unroll=UnrollDirective(factor=4)
        )
        sched = schedule_loop(simple_loop(), ds)
        assert sched.trips == 8
        assert sched.latency == 10 + 7

    def test_unroll_multiplies_port_pressure(self):
        loop = simple_loop(accesses=[ArrayAccess("arr", reads_per_iter=2)])
        arrays = {"arr": ArraySpec(name="arr", words=128)}
        ds = DirectiveSet(
            pipeline=PipelineDirective(), unroll=UnrollDirective(factor=4)
        )
        sched = schedule_loop(loop, ds, arrays)
        assert sched.achieved_ii == 4  # 8 accesses / 2 ports

    def test_unroll_does_not_beat_recurrence(self):
        loop = simple_loop(recurrence_ii=6)
        ds = DirectiveSet(
            pipeline=PipelineDirective(), unroll=UnrollDirective(factor=2)
        )
        assert schedule_loop(loop, ds).achieved_ii == 6


class TestSequential:
    def test_unpipelined_latency(self):
        sched = schedule_loop(simple_loop(), DirectiveSet())
        assert not sched.pipelined
        assert sched.latency == 32 * 10


class TestHelpers:
    def test_port_limiting_arrays_reports_ties(self):
        loop = simple_loop(
            accesses=[
                ArrayAccess("a", reads_per_iter=8),
                ArrayAccess("b", reads_per_iter=8),
                ArrayAccess("c", reads_per_iter=2),
            ]
        )
        arrays = {
            n: ArraySpec(name=n, words=64) for n in ("a", "b", "c")
        }
        ds = DirectiveSet(pipeline=PipelineDirective())
        tied = port_limiting_arrays(loop, ds, arrays, 1)
        assert set(tied) == {"a", "b"}

    def test_unknown_array_rejected(self):
        loop = simple_loop(accesses=[ArrayAccess("ghost", reads_per_iter=1)])
        with pytest.raises(HLSError):
            schedule_loop(
                loop, DirectiveSet(pipeline=PipelineDirective()), {}
            )
