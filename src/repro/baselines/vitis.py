"""The Vitis-HLS-only baseline ("solely optimized by Vitis HLS").

Vitis HLS applies loop pipelining to innermost loops automatically but does
not unroll loops, partition arrays, restructure the program into dataflow
tasks, or manage external memory tiling.  :func:`vitis_pipeline_spec` therefore

* pipelines every innermost loop (II = 1 target),
* keeps every loop at unroll factor 1,
* executes all loop bands sequentially (no dataflow overlap).
"""

from __future__ import annotations

from ..compiler import Compiler
from ..estimation.qor import DesignEstimate
from ..ir.builtin import ModuleOp

__all__ = ["compile_vitis_baseline", "vitis_pipeline_spec"]


def vitis_pipeline_spec() -> str:
    """The printed pipeline spec of the Vitis-HLS-only baseline."""
    return "lower-linalg,pipeline-innermost,estimate{dataflow=0}"


def compile_vitis_baseline(module: ModuleOp, platform: str = "zu3eg") -> DesignEstimate:
    """Estimate ``module`` as Vitis HLS would compile it out of the box.

    ``module`` may also be a registry workload id (``"atax"``) or
    :class:`~repro.workloads.Workload` handle, resolved lazily.
    """
    return Compiler.from_spec(vitis_pipeline_spec(), platform=platform).run(module).estimate
