"""DNNBuilder-style baseline: hand-designed RTL DNN pipeline IPs.

DNNBuilder [77] instantiates one RTL IP per layer, connects them in a
dataflow pipeline, and allocates channel-level parallelism (channel parallel
factor, CPF, and kernel parallel factor, KPF) proportionally to each layer's
compute so the pipeline is rate-balanced.  It achieves very high DSP
efficiency, but

* parallelism is restricted to the channel dimensions (it cannot exploit
  feature-map width/height parallelism), and
* it only supports standard CNN layers: models with shortcut paths
  (ResNet-18) or depthwise convolutions (MobileNet) are unsupported, as the
  paper notes.

The baseline is analytical: it consumes the traced layer summary rather
than the loop-level IR, mirroring how DNNBuilder generates designs from a
layer graph description.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Sequence

from ..estimation.platform import get_platform
from ..frontend.nn.tracer import layer_summary
from ..ir.builtin import ModuleOp

__all__ = ["DNNBuilderResult", "UnsupportedModelError", "compile_dnnbuilder_baseline"]


class UnsupportedModelError(RuntimeError):
    """Raised for models DNNBuilder cannot implement (shortcuts, depthwise)."""


@dataclasses.dataclass
class DNNBuilderResult:
    """Analytical estimate of a DNNBuilder pipeline."""

    throughput: float
    dsp: float
    bram: float
    macs_per_sample: float
    layer_parallelism: Dict[int, int]
    clock_mhz: float

    @property
    def dsp_efficiency(self) -> float:
        if self.dsp <= 0:
            return 0.0
        return (self.throughput * self.macs_per_sample) / (
            self.dsp * self.clock_mhz * 1e6
        )


_UNSUPPORTED_OPS = {"linalg.add", "linalg.depthwise_conv2d"}


def _channel_parallel_limit(op_name: str, out_shape: Sequence[int], macs: int) -> int:
    """Maximum CPFxKPF parallelism available from the channel dimensions."""
    if op_name == "linalg.linear":
        return max(int(out_shape[-1]), 1)
    if len(out_shape) >= 2:
        return max(int(out_shape[1]), 1)
    return 1


def compile_dnnbuilder_baseline(
    module: ModuleOp,
    platform: str = "vu9p-slr",
    dsp_budget: Optional[float] = None,
) -> DNNBuilderResult:
    """Estimate a DNNBuilder pipeline for a traced (linalg-level) model.

    ``module`` may also be a registry workload id (``"vgg16"``) or
    :class:`~repro.workloads.Workload` handle.  ``dsp_budget`` defaults to
    the platform's full DSP count; the paper constrains both frameworks to
    the same resources for fairness.
    """
    from ..workloads import as_module

    module = as_module(module)
    target = get_platform(platform)
    budget = dsp_budget if dsp_budget is not None else target.dsps

    summary = layer_summary(module)
    for name, _, _, _ in summary:
        if name in _UNSUPPORTED_OPS:
            raise UnsupportedModelError(
                f"DNNBuilder does not support {name} (shortcut or depthwise layer)"
            )
    layers = [
        (name, label, shape, macs) for name, label, shape, macs in summary if macs > 0
    ]
    if not layers:
        raise UnsupportedModelError("model has no compute layers")

    total_macs = float(sum(macs for _, _, _, macs in layers))

    # Rate balancing: allocate parallelism proportional to each layer's MACs,
    # restricted to powers of two and to the channel dimensions.
    parallelism: Dict[int, int] = {}
    dsp_used = 0.0
    bram = 0.0
    for index, (name, _, shape, macs) in enumerate(layers):
        share = budget * macs / total_macs
        factor = 2 ** int(math.floor(math.log2(max(share, 1.0))))
        limit = _channel_parallel_limit(name, shape, macs)
        factor = max(1, min(factor, limit))
        parallelism[index] = factor
        dsp_used += factor
        # Line-buffer style on-chip storage: one ping-pong row buffer per IP.
        if len(shape) == 4:
            row_bits = shape[1] * shape[3] * 8 * 2
            bram += max(1.0, row_bits / (18 * 1024))
        else:
            bram += 1.0

    # The pipeline interval is set by the slowest IP.
    interval = max(
        macs / parallelism[index] for index, (_, _, _, macs) in enumerate(layers)
    )
    throughput = target.clock_hz / max(interval, 1.0)
    return DNNBuilderResult(
        throughput=throughput,
        dsp=dsp_used,
        bram=bram,
        macs_per_sample=total_macs,
        layer_parallelism=parallelism,
        clock_mhz=target.clock_mhz,
    )
