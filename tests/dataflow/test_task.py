"""Task latency models and statistics."""

import pytest

from repro.dataflow.task import Task, TaskStats
from repro.errors import DataflowError


class TestTask:
    def test_constant_latency(self):
        task = Task("t", 10)
        assert task.latency_at(0) == 10
        assert task.mean_latency(5) == 10.0

    def test_callable_latency(self):
        task = Task("t", lambda i: 5 + i)
        assert task.latency_at(0) == 5
        assert task.latency_at(3) == 8
        assert task.mean_latency(4) == pytest.approx(6.5)

    def test_invalid_latency_rejected(self):
        with pytest.raises(DataflowError):
            Task("t", 0)

    def test_callable_returning_zero_rejected_lazily(self):
        task = Task("t", lambda i: 0)
        with pytest.raises(DataflowError):
            task.latency_at(0)

    def test_empty_name_rejected(self):
        with pytest.raises(DataflowError):
            Task("", 1)


class TestStats:
    def test_occupancy(self):
        stats = TaskStats(
            name="t", busy_cycles=50, first_start=0, last_finish=100
        )
        assert stats.occupancy == pytest.approx(0.5)

    def test_occupancy_without_activity(self):
        assert TaskStats(name="t").occupancy == 0.0


class TestBlockLatency:
    def test_call_matches_round_half_even(self):
        from repro.dataflow.task import BlockLatency

        model = BlockLatency(2.5, [1, 2, 3])
        assert [model(i) for i in range(3)] == [
            max(1, round(2.5 * s)) for s in (1, 2, 3)
        ]

    def test_array_matches_per_iteration_calls(self):
        import numpy as np

        from repro.dataflow.task import BlockLatency

        model = BlockLatency(0.3, [1, 5, 2, 7], first_extra=9)
        expected = [model(i) for i in range(4)]
        assert model.array(4).tolist() == expected
        assert model.array(4).dtype == np.int64

    def test_constant_model_without_sizes(self):
        from repro.dataflow.task import BlockLatency

        model = BlockLatency(6, first_extra=4)
        assert model(0) == 10
        assert model(3) == 6
        assert model.array(3).tolist() == [10, 6, 6]

    def test_array_rejects_uncovered_iterations(self):
        from repro.dataflow.task import BlockLatency

        with pytest.raises(DataflowError):
            BlockLatency(1.0, [1, 2]).array(3)

    def test_negative_fill_rejected(self):
        from repro.dataflow.task import BlockLatency

        with pytest.raises(DataflowError):
            BlockLatency(1.0, first_extra=-1)

    def test_task_latency_array_for_all_model_kinds(self):
        from repro.dataflow.task import BlockLatency

        assert Task("c", 4).latency_array(3).tolist() == [4, 4, 4]
        assert Task(
            "v", lambda i: 2 + i
        ).latency_array(3).tolist() == [2, 3, 4]
        assert Task(
            "b", BlockLatency(2.0, [1, 2, 3])
        ).latency_array(2).tolist() == [2, 4]
