"""Evaluation metrics: DSP efficiency, speedups, geometric means, memory reduction."""

from __future__ import annotations

import math
from typing import Iterable


__all__ = [
    "dsp_efficiency",
    "geometric_mean",
    "memory_reduction",
]


def dsp_efficiency(
    throughput: float,
    macs_per_sample: float,
    dsp_count: float,
    frequency_hz: float,
    macs_per_dsp_per_cycle: float = 1.0,
) -> float:
    """DSP efficiency as defined in Equation (1) of the paper.

    ``Efficiency = (Throughput x OPs) / (DSP x Frequency)`` where OPs is the
    MAC count per sample.  A value of 1.0 means every instantiated DSP
    performs one MAC per cycle without ever stalling.
    """
    if dsp_count <= 0 or frequency_hz <= 0:
        return 0.0
    return (throughput * macs_per_sample) / (
        dsp_count * frequency_hz * macs_per_dsp_per_cycle
    )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (ignores non-positive entries)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(v) for v in filtered) / len(filtered))


def memory_reduction(baseline_bram: float, optimized_bram: float) -> float:
    """On-chip memory reduction factor (Figure 9)."""
    if optimized_bram <= 0:
        return float("inf") if baseline_bram > 0 else 1.0
    return baseline_bram / optimized_bram
