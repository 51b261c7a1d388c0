"""Table I — post-P&R resource utilization.

Paper: Vitis Opt.@100MHz FF 17.19 / LUT 27.68 / BRAM 22.96 / URAM 0.73 /
DSP 9.17 %; Proposed@150MHz FF 25.29 / LUT 41.15 / BRAM 43.98 /
URAM 11.77 / DSP 18.23 %.
"""

import pytest

from repro.experiments.tab1_resources import (
    PAPER_TABLE1,
    render_tab1,
    run_tab1,
)


def test_tab1_resources(benchmark, proposed, vitis):
    result = benchmark(lambda: run_tab1(proposed=proposed, vitis=vitis))
    print()
    print(render_tab1(result))

    # Shape assertions:
    # 1. the proposed design uses more of every resource;
    for column in ("FF", "LUT", "BRAM", "URAM", "DSP"):
        assert result.ratio(column) > 1.0, column
    # 2. URAM is the outlier (paper: 16x), far beyond the FF/LUT growth;
    assert result.ratio("URAM") > 6.0
    assert result.ratio("FF") < 2.5
    assert result.ratio("LUT") < 2.5
    # 3. nothing exceeds half the device;
    assert result.all_below(50.0)
    # 4. the proposed URAM% lands on the paper's value (the staging
    #    design was sized against it).
    assert result.rows["proposed"]["URAM"] == pytest.approx(
        PAPER_TABLE1["proposed"]["URAM"], abs=2.0
    )

    for name, row in result.rows.items():
        for col, val in row.items():
            benchmark.extra_info[f"model_{name}_{col}"] = round(val, 2)
    for name, row in PAPER_TABLE1.items():
        for col, val in row.items():
            benchmark.extra_info[f"paper_{name}_{col}"] = val
