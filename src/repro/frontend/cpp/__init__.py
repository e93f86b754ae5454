"""repro.frontend.cpp — the C++ (Polygeist-style) loop-kernel frontend."""

from .kernel_builder import IndexExpr, KernelBuilder, ScalarExpr
from .listing1 import build_listing1
from .polybench import (
    MULTI_LOOP_KERNELS,
    POLYBENCH_KERNELS,
    SINGLE_LOOP_KERNELS,
    kernel_names,
)

__all__ = [
    "IndexExpr",
    "KernelBuilder",
    "ScalarExpr",
    "build_listing1",
    "POLYBENCH_KERNELS",
    "MULTI_LOOP_KERNELS",
    "SINGLE_LOOP_KERNELS",
    "kernel_names",
]
