"""repro.frontend.cpp — the C++ (Polygeist-style) loop-kernel frontend."""

from .kernel_builder import IndexExpr, KernelBuilder, ScalarExpr
from .listing1 import build_listing1
from . import polybench  # noqa: F401  (registers the kernels, after listing1)

__all__ = [
    "IndexExpr",
    "KernelBuilder",
    "ScalarExpr",
    "build_listing1",
]
