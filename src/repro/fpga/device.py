"""Device model of the AMD Alveo U200 accelerator card.

The U200 (XCU250-family VU9P die) exposes three Super Logic Regions
(SLRs) connected by Super Long Lines (SLL); four 16 GB DDR4 channels
attach pairwise to SLR0/SLR2 ("The Alveo U200 card includes 3 Super
Logic Regions (SLRs) and 4 DDR memories, each with a capacity of 16GB").
Resource totals follow the public data sheet (DS962 / UG1120); SLRs are
modeled with the published per-SLR splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import FPGAError
from ..hls.resources import ResourceVector


@dataclass(frozen=True)
class SLR:
    """One Super Logic Region."""

    name: str
    resources: ResourceVector
    has_ddr_attach: bool

    def __post_init__(self) -> None:
        if min(
            self.resources.lut,
            self.resources.ff,
            self.resources.bram36,
            self.resources.uram,
            self.resources.dsp,
        ) <= 0:
            raise FPGAError(f"SLR {self.name!r}: resources must be positive")


@dataclass(frozen=True)
class FPGADevice:
    """A multi-SLR FPGA board."""

    name: str
    slrs: tuple[SLR, ...]
    num_ddr_channels: int
    ddr_capacity_gib_per_channel: int
    #: Extra register stages a signal pays to cross one SLL boundary.
    sll_crossing_latency_cycles: int
    #: Nominal (shell-limited) kernel clock ceiling in MHz.
    max_kernel_clock_mhz: float
    #: Maximum m_axi interfaces the shell exposes per kernel.
    max_axi_interfaces_per_kernel: int

    def __post_init__(self) -> None:
        if not self.slrs:
            raise FPGAError("device needs at least one SLR")
        if self.num_ddr_channels < 1:
            raise FPGAError("device needs at least one DDR channel")

    def totals(self) -> ResourceVector:
        """Whole-device resource totals."""
        total = ResourceVector()
        for slr in self.slrs:
            total = total + slr.resources
        return total

    def slr_by_name(self, name: str) -> SLR:
        """Look up one SLR."""
        for slr in self.slrs:
            if slr.name == name:
                return slr
        known = ", ".join(s.name for s in self.slrs)
        raise FPGAError(f"unknown SLR {name!r}; known: {known}")

    def ddr_attached_slrs(self) -> list[SLR]:
        """SLRs with a direct DDR memory-controller attachment."""
        return [slr for slr in self.slrs if slr.has_ddr_attach]

    @cached_property
    def num_ddr_attached_slrs(self) -> int:
        """``len(ddr_attached_slrs())``, counted once per device."""
        return sum(slr.has_ddr_attach for slr in self.slrs)


def _u200_slr(name: str, has_ddr: bool) -> SLR:
    """One SLR of the U200; the VU9P die splits near-evenly in thirds."""
    return SLR(
        name=name,
        resources=ResourceVector(
            lut=394_080,  # 1,182,240 total / 3
            ff=788_160,  # 2,364,480 total / 3
            bram36=720,  # 2,160 total / 3
            uram=320,  # 960 total / 3
            dsp=2_280,  # 6,840 total / 3
        ),
        has_ddr_attach=has_ddr,
    )


#: The paper's target board. SLR0 and SLR2 carry the DDR controllers; the
#: XDMA shell reserves part of SLR1 (modeled via the floorplanner's shell
#: overhead, see :mod:`repro.fpga.floorplan`).
ALVEO_U200 = FPGADevice(
    name="alveo-u200",
    slrs=(
        _u200_slr("SLR0", has_ddr=True),
        _u200_slr("SLR1", has_ddr=False),
        _u200_slr("SLR2", has_ddr=True),
    ),
    num_ddr_channels=4,
    ddr_capacity_gib_per_channel=16,
    sll_crossing_latency_cycles=4,
    max_kernel_clock_mhz=300.0,
    max_axi_interfaces_per_kernel=16,
)


def hbm_class_device(num_slrs: int = 4) -> FPGADevice:
    """A synthetic HBM-class board: every SLR memory-attached.

    Models the class of boards the multi-CU analysis points at (U280/U55C
    style stacked memory): each SLR owns its own group of HBM
    pseudo-channels, so the compute-unit ceiling
    (:func:`repro.accel.multi_cu.max_compute_units` — the memory-attached
    SLR count) rises to ``num_slrs`` with no change to the design
    machinery. SLR fabric resources reuse the U200's per-SLR split so
    design points stay comparable across the device axis.
    """
    if num_slrs < 1:
        raise FPGAError("an HBM-class device needs at least one SLR")
    return FPGADevice(
        name=f"hbm-class-{num_slrs}slr",
        slrs=tuple(
            _u200_slr(f"SLR{i}", has_ddr=True) for i in range(num_slrs)
        ),
        num_ddr_channels=8 * num_slrs,
        ddr_capacity_gib_per_channel=2,
        sll_crossing_latency_cycles=4,
        max_kernel_clock_mhz=300.0,
        max_axi_interfaces_per_kernel=16,
    )


#: The canonical HBM-class design-space axis value (4 memory-attached
#: SLRs, admitting up to 4 compute units).
HBM_CLASS_4SLR = hbm_class_device(4)

#: Device axis of the design space: short name -> device model.
DEVICE_REGISTRY: dict[str, FPGADevice] = {
    "u200": ALVEO_U200,
    "hbm": HBM_CLASS_4SLR,
}


def device_by_name(name: str) -> FPGADevice:
    """Resolve a design-space device-axis value to its device model."""
    try:
        return DEVICE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(DEVICE_REGISTRY))
        raise FPGAError(f"unknown device {name!r}; known: {known}") from None
