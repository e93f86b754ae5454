"""ScaleHLS-style baseline (the paper's primary comparison framework).

ScaleHLS [70] legalizes a computation graph into a dataflow model and applies
loop/directive optimizations per task but, as the paper discusses, it

* ignores the inter-task design-space coupling: every task is parallelized
  towards the maximum parallel factor independently (no intensity
  proportionality and no connection alignment);
* has no external memory access support, so *all* intermediate results and
  weights must stay on-chip (the source of the memory gap in Figure 9);
* performs no multi-producer elimination or data-path balancing, so shortcut
  structures (ResNet) back-pressure the pipeline.

Each policy is a difference between :func:`scalehls_pipeline_spec` and the
default pipeline, except the BRAM that keeping every weight tensor on-chip
costs, which is added to the estimate afterwards.
"""

from __future__ import annotations

from ..compiler import CompilationState, Compiler
from ..dialects.memref import GetGlobalOp
from ..ir.builtin import ModuleOp

__all__ = ["compile_scalehls_baseline", "scalehls_pipeline_spec"]


def scalehls_pipeline_spec(max_parallel_factor: int, enable_dataflow: bool = True) -> str:
    """The printed pipeline spec of the ScaleHLS baseline."""
    estimate = "estimate" if enable_dataflow else "estimate{dataflow=0}"
    return (
        "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
        f"parallelize{{factor={max_parallel_factor},ia=0,ca=0}},{estimate}"
    )


def _weight_bram(module: ModuleOp) -> float:
    """BRAM cost of keeping every weight tensor on-chip (18Kb blocks)."""
    total = 0.0
    for op in module.walk():
        if isinstance(op, GetGlobalOp):
            memref_type = op.result().type
            bits = memref_type.num_elements * memref_type.element_type.bitwidth
            total += max(1.0, bits / (18 * 1024))
    return total


def compile_scalehls_baseline(
    module: ModuleOp,
    platform: str = "vu9p-slr",
    max_parallel_factor: int = 32,
    enable_dataflow: bool = True,
) -> CompilationState:
    """Compile ``module`` with ScaleHLS-style policies and estimate its QoR.

    ``module`` may also be a registry workload id (``"resnet18@batch=4"``)
    or :class:`~repro.workloads.Workload` handle, resolved lazily.
    """
    spec = scalehls_pipeline_spec(max_parallel_factor, enable_dataflow)
    result = Compiler.from_spec(spec, platform=platform).run(module)
    result.estimate.resources.bram += _weight_bram(result.module)
    return result
