"""Phase profiler: accumulation, nesting, Fig. 2 categorization."""

import time

import pytest

from repro.errors import SolverError
from repro.solver.profiler import (
    PAPER_FIG2_BREAKDOWN,
    PhaseBreakdown,
    PhaseProfiler,
)


class TestAccumulation:
    def test_single_phase(self):
        prof = PhaseProfiler()
        with prof.phase("a"):
            time.sleep(0.01)
        assert prof.total("a") >= 0.01
        assert prof.total("missing") == 0.0

    def test_nested_phases_partition_time(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            time.sleep(0.005)
            with prof.phase("inner"):
                time.sleep(0.01)
            time.sleep(0.005)
        total = prof.grand_total()
        assert prof.total("inner") >= 0.01
        assert prof.total("outer") >= 0.009
        # no double counting: totals partition wall clock
        assert abs(total - (prof.total("inner") + prof.total("outer"))) < 1e-9

    def test_reentry_accumulates(self, monkeypatch):
        clock = iter([0.0, 1.0, 5.0, 7.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
        prof = PhaseProfiler()
        for _ in range(2):
            with prof.phase("a"):
                pass
        assert prof.total("a") == 3.0

    def test_phase_closed_by_an_exception_still_counts(self, monkeypatch):
        clock = iter([0.0, 2.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
        prof = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with prof.phase("a"):
                raise RuntimeError("boom")
        assert prof.total("a") == 2.0

    def test_totals_is_a_copy(self):
        prof = PhaseProfiler()
        with prof.phase("a"):
            pass
        prof.totals()["a"] = 99.0
        assert prof.total("a") != 99.0

    def test_report_contains_phases(self):
        prof = PhaseProfiler()
        with prof.phase("rk.diffusion"):
            pass
        assert "rk.diffusion" in prof.report()


class TestBreakdown:
    def test_categorization(self):
        prof = PhaseProfiler()
        with prof.phase("rk.diffusion"):
            time.sleep(0.004)
        with prof.phase("rk.convection"):
            time.sleep(0.002)
        with prof.phase("rk.update"):
            time.sleep(0.002)
        with prof.phase("non_rk"):
            time.sleep(0.002)
        b = prof.breakdown()
        assert b.rk_diffusion > b.rk_convection
        assert b.rk_total > 0.5
        assert b.rk_diffusion + b.rk_convection + b.rk_other + b.non_rk == (
            pytest.approx(1.0)
        )

    def test_other_rk_phases_fold_into_rk_other(self, monkeypatch):
        clock = iter([0.0, 1.0, 1.0, 4.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
        prof = PhaseProfiler()
        with prof.phase("rk.update"):
            pass
        with prof.phase("io"):
            pass
        b = prof.breakdown()
        assert b.rk_other == pytest.approx(0.25)
        assert b.non_rk == pytest.approx(0.75)
        assert b.rk_diffusion == b.rk_convection == 0.0

    def test_empty_profile_rejected(self):
        with pytest.raises(SolverError):
            PhaseProfiler().breakdown()

    def test_paper_reference_values(self):
        assert PAPER_FIG2_BREAKDOWN.rk_total == pytest.approx(0.7637, abs=1e-4)
        pct = PAPER_FIG2_BREAKDOWN.as_percentages()
        assert pct["RK(Diffusion)"] == pytest.approx(39.2)

    def test_breakdown_must_sum_to_one(self):
        with pytest.raises(SolverError):
            PhaseBreakdown(0.5, 0.2, 0.1, 0.1)
