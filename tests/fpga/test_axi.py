"""Memory ports, burst cost and the decoupling optimization."""

import pytest

from repro.errors import FPGAError
from repro.fpga.axi import MemoryPort, burst_cycles, update_loop_ii
from repro.fpga.ddr import DDR4_2400, streaming_cycles


class TestPorts:
    def test_gather_needs_access_count(self):
        with pytest.raises(FPGAError):
            MemoryPort(array="a", pattern="gather", values_per_iter=4)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(FPGAError):
            MemoryPort(array="a", pattern="burst", values_per_iter=4)


class TestBurst:
    def test_burst_streams_fp32_bytes(self):
        assert burst_cycles(32) == streaming_cycles(32 * 4, DDR4_2400)


class TestDecoupling:
    def test_coupled_update_loop_pays_round_trip(self):
        assert update_loop_ii(decoupled=False, read_latency_cycles=8) == 9

    def test_decoupled_update_loop_pipelines(self):
        assert update_loop_ii(decoupled=True) == 1

    def test_invalid_latency(self):
        with pytest.raises(FPGAError):
            update_loop_ii(decoupled=False, read_latency_cycles=0)
