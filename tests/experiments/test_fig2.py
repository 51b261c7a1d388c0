"""Fig. 2 reproduction checks."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.fig2_breakdown import (
    PAPER_PERCENTAGES,
    render_fig2,
    run_fig2,
)


@pytest.fixture(scope="module")
def result():
    return run_fig2()


class TestFig2:
    def test_within_2_5_points_of_paper(self, result):
        deviation = max(
            abs(result.percentages[k] - PAPER_PERCENTAGES[k])
            for k in PAPER_PERCENTAGES
        )
        assert deviation < 2.5

    def test_category_ordering_matches_paper(self, result):
        p = result.percentages
        assert (
            p["rk_diffusion"]
            > p["non_rk"]
            > p["rk_convection"]
            > p["rk_other"]
        )

    def test_rk_total_near_76_5(self, result):
        assert result.rk_total_percent == pytest.approx(76.5, abs=2.5)

    def test_percentages_sum_to_100(self, result):
        assert sum(result.percentages.values()) == pytest.approx(100.0)

    def test_render(self, result):
        text = render_fig2(result)
        assert "RK(Diffusion)" in text and "39.20" in text

    def test_empty_counts_rejected(self):
        with pytest.raises(ExperimentError):
            run_fig2(node_counts=())

    def test_paper_reference_sums_to_100(self):
        assert sum(PAPER_PERCENTAGES.values()) == pytest.approx(100.0)
