"""FPGA platform specifications used by the paper's evaluation.

Three devices appear in the paper: the AMD PYNQ-Z2 (Zynq-7020) for the LeNet
case study, the ZU3EG for the PolyBench C++ kernels, and one super logic
region (SLR) of a VU9P for the DNN models.  Resource counts are the public
device figures; BRAM is counted in 18Kb blocks as Vitis HLS reports it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Union

__all__ = ["Platform", "PYNQ_Z2", "ZU3EG", "VU9P_SLR", "get_platform"]


@dataclasses.dataclass(frozen=True)
class Platform:
    """An FPGA target: resource budget, clock and external memory behaviour."""

    name: str
    luts: int
    ffs: int
    dsps: int
    bram_18k: int
    clock_mhz: float = 200.0
    #: Achievable external memory bandwidth in bytes per cycle (per AXI port).
    dram_bytes_per_cycle: float = 16.0
    #: Latency, in cycles, of an external memory burst setup.
    dram_latency_cycles: int = 64

    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6

    def utilization(self, used: Dict[str, float]) -> Dict[str, float]:
        """Fractional utilization per resource kind for a usage dictionary."""
        return {
            "lut": used.get("lut", 0.0) / self.luts,
            "ff": used.get("ff", 0.0) / self.ffs,
            "dsp": used.get("dsp", 0.0) / self.dsps,
            "bram": used.get("bram", 0.0) / self.bram_18k,
        }

    def max_utilization(self, used: Dict[str, float]) -> float:
        """The paper's resource metric: max(BRAM%, DSP%, LUT%)."""
        util = self.utilization(used)
        return max(util["bram"], util["dsp"], util["lut"])

    def fits(self, used: Dict[str, float], budget: float = 1.0) -> bool:
        return self.max_utilization(used) <= budget


PYNQ_Z2 = Platform(
    name="pynq-z2",
    luts=53_200,
    ffs=106_400,
    dsps=220,
    bram_18k=280,
    clock_mhz=100.0,
    dram_bytes_per_cycle=8.0,
)

ZU3EG = Platform(
    name="zu3eg",
    luts=70_560,
    ffs=141_120,
    dsps=360,
    bram_18k=432,
    clock_mhz=200.0,
    dram_bytes_per_cycle=16.0,
)

VU9P_SLR = Platform(
    name="vu9p-slr",
    luts=394_000,
    ffs=788_000,
    dsps=2_280,
    bram_18k=1_440,
    clock_mhz=200.0,
    # Four DDR4-2400 channels are reachable from one SLR on the evaluation
    # board; at 200 MHz this is roughly 256 bytes per cycle of burst traffic.
    dram_bytes_per_cycle=256.0,
)


def get_platform(name: Union[str, Platform]) -> Platform:
    """Look up a platform by name (``pynq-z2``, ``zu3eg``, ``vu9p-slr``).

    A lookup in the :mod:`repro.targets` registry, so aliases (``vu9p`` ->
    ``vu9p-slr``) work everywhere a platform name is accepted and unknown
    names raise its did-you-mean ``KeyError`` subclass.
    """
    if isinstance(name, Platform):
        return name
    try:
        # Canonical names (every internal caller) are one dict read.
        return _targets._REGISTRY[name].platform
    except KeyError:
        return _targets.get_target(name).platform


# At the bottom because repro.targets registers the devices defined above.
from .. import targets as _targets  # noqa: E402
