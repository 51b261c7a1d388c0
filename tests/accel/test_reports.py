"""Report rendering for designs."""

from repro.accel.reports import (
    render_power_report,
    render_table1,
    table1_row,
)


class TestTable1:
    def test_row_has_all_columns(self, proposed):
        row = table1_row(proposed)
        assert set(row) == {"FF", "LUT", "BRAM", "URAM", "DSP"}

    def test_render_contains_both_designs(self, proposed, vitis):
        text = render_table1([vitis, proposed])
        assert "vitis-optimized@100MHz" in text
        assert "proposed@150MHz" in text


class TestPowerReport:
    def test_render(self, proposed):
        text = render_power_report(proposed)
        assert "core application" in text
        assert "150 MHz" in text
