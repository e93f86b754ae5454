"""FPGA platform specifications used by the paper's evaluation.

Three devices appear in the paper: the AMD PYNQ-Z2 (Zynq-7020) for the LeNet
case study, the ZU3EG for the PolyBench C++ kernels, and one super logic
region (SLR) of a VU9P for the DNN models.  Resource counts are the public
device figures; BRAM is counted in 18Kb blocks as Vitis HLS reports it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Tuple, Union

from .._naming import UnknownNameError, closest_names, unknown_name_message

__all__ = [
    "Platform",
    "PYNQ_Z2",
    "ZU3EG",
    "VU9P_SLR",
    "UnknownTargetError",
    "get_platform",
    "iter_platforms",
    "list_platforms",
]


class UnknownTargetError(UnknownNameError):
    """An unresolvable target/platform name, with closest-match suggestions."""


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
    #: Other names :func:`get_platform` resolves to this device.
    aliases: Tuple[str, ...] = ()
    description: str = ""

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
    aliases=("pynq", "zynq-7020", "z2"),
    description="PYNQ-Z2 (Zynq-7020) — the Section-2 LeNet case study board",
)

ZU3EG = Platform(
    name="zu3eg",
    luts=70_560,
    ffs=141_120,
    dsps=360,
    bram_18k=432,
    clock_mhz=200.0,
    dram_bytes_per_cycle=16.0,
    aliases=("zu3", "ultra96"),
    description="Zynq UltraScale+ ZU3EG — the Table-7 PolyBench target",
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
    aliases=("vu9p", "u250-slr"),
    description="One SLR of a Virtex UltraScale+ VU9P — the Table-8 DNN target",
)


#: The one name -> platform table: canonical names and aliases alike.
_BY_NAME: Dict[str, Platform] = {
    name: platform
    for platform in (PYNQ_Z2, ZU3EG, VU9P_SLR)
    for name in (platform.name, *platform.aliases)
}


def iter_platforms() -> Iterator[Platform]:
    """Registered platforms, registration order (aliases folded)."""
    return iter(dict.fromkeys(_BY_NAME.values()))


def list_platforms() -> List[str]:
    """Canonical platform names, registration order."""
    return [platform.name for platform in iter_platforms()]


def get_platform(name: Union[str, Platform]) -> Platform:
    """Look up a platform by name or alias (``vu9p`` -> ``vu9p-slr``).

    Case-insensitive; a :class:`Platform` passes through unchanged and an
    unknown name raises :class:`UnknownTargetError`, a did-you-mean
    ``KeyError`` subclass.
    """
    if isinstance(name, Platform):
        return name
    try:
        # Canonical names (every internal caller) are one dict read.
        return _BY_NAME[name]
    except KeyError:
        pass
    key = name.lower().strip()
    platform = _BY_NAME.get(key)
    if platform is None:
        canonical = list_platforms()
        candidates = canonical + sorted(set(_BY_NAME) - set(canonical))
        raise UnknownTargetError(
            unknown_name_message("target platform", key, candidates),
            closest_names(key, candidates),
        )
    return platform
