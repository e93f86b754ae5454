"""PolyBench kernels used in the C++ evaluation of the paper (Table 7).

Each kernel is built as an affine loop-nest module via the
:class:`~repro.frontend.cpp.kernel_builder.KernelBuilder`.  Kernels are
grouped as in the paper:

* blas routines: ``gesummv``, ``symm``, ``syr2k``;
* linear algebra: ``2mm``, ``3mm``, ``atax``, ``bicg``, ``mvt``;
* data mining: ``correlation``;
* stencils: ``jacobi-2d``, ``seidel-2d``.

The kernels the paper classifies as *single-loop* (``bicg``, ``gesummv``,
``seidel-2d``, ``symm``, ``syr2k``) are written as one loop band, so they
expose no inter-task dataflow opportunity; the *multi-loop* kernels contain
several bands and are where HIDA's dataflow optimizations show gains.

Problem sizes follow the PolyBench ``SMALL`` dataset scaled to keep the
analytical evaluation fast; relative comparisons are size-independent.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ...ir.builtin import ModuleOp
from ...workloads import register_workload
from .kernel_builder import KernelBuilder

__all__ = [
    "POLYBENCH_KERNELS",
    "MULTI_LOOP_KERNELS",
    "SINGLE_LOOP_KERNELS",
    "kernel_names",
]

N = 40  # base problem dimension
TSTEPS = 4  # time steps for stencils


@register_workload("2mm", kind="kernel", tags=("polybench", "linear-algebra", "multi-loop"))
def build_2mm(n: int = N) -> ModuleOp:
    """D := alpha*A*B*C + beta*D (two chained matrix multiplications)."""
    kb = KernelBuilder("2mm")
    kb.add_input("A", (n, n))
    kb.add_input("B", (n, n))
    kb.add_input("C", (n, n))
    kb.add_inout("D", (n, n))
    kb.add_local("tmp", (n, n))
    alpha, beta = 1.5, 1.2

    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("tmp", [i, j], kb.constant(0.0))
    with kb.loop_nest(("i", "j", "k"), (n, n, n)) as (i, j, k):
        acc = kb.load("tmp", [i, j]) + kb.load("A", [i, k]) * kb.load("B", [k, j]) * alpha
        kb.store("tmp", [i, j], acc)
    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("D", [i, j], kb.load("D", [i, j]) * beta)
    with kb.loop_nest(("i", "j", "k"), (n, n, n)) as (i, j, k):
        acc = kb.load("D", [i, j]) + kb.load("tmp", [i, k]) * kb.load("C", [k, j])
        kb.store("D", [i, j], acc)
    return kb.finish()


@register_workload("3mm", kind="kernel", tags=("polybench", "linear-algebra", "multi-loop"))
def build_3mm(n: int = N) -> ModuleOp:
    """G := (A*B) * (C*D) (three matrix multiplications)."""
    kb = KernelBuilder("3mm")
    kb.add_input("A", (n, n))
    kb.add_input("B", (n, n))
    kb.add_input("C", (n, n))
    kb.add_input("D", (n, n))
    kb.add_output("G", (n, n))
    kb.add_local("E", (n, n))
    kb.add_local("F", (n, n))

    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("E", [i, j], kb.constant(0.0))
    with kb.loop_nest(("i", "j", "k"), (n, n, n)) as (i, j, k):
        kb.store("E", [i, j], kb.load("E", [i, j]) + kb.load("A", [i, k]) * kb.load("B", [k, j]))
    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("F", [i, j], kb.constant(0.0))
    with kb.loop_nest(("i", "j", "k"), (n, n, n)) as (i, j, k):
        kb.store("F", [i, j], kb.load("F", [i, j]) + kb.load("C", [i, k]) * kb.load("D", [k, j]))
    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("G", [i, j], kb.constant(0.0))
    with kb.loop_nest(("i", "j", "k"), (n, n, n)) as (i, j, k):
        kb.store("G", [i, j], kb.load("G", [i, j]) + kb.load("E", [i, k]) * kb.load("F", [k, j]))
    return kb.finish()


@register_workload("atax", kind="kernel", tags=("polybench", "linear-algebra", "multi-loop"))
def build_atax(n: int = N) -> ModuleOp:
    """y := A^T (A x)."""
    kb = KernelBuilder("atax")
    kb.add_input("A", (n, n))
    kb.add_input("x", (n,))
    kb.add_output("y", (n,))
    kb.add_local("tmp", (n,))

    with kb.loop("i", n) as i:
        kb.store("tmp", [i], kb.constant(0.0))
    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("tmp", [i], kb.load("tmp", [i]) + kb.load("A", [i, j]) * kb.load("x", [j]))
    with kb.loop("j", n) as j:
        kb.store("y", [j], kb.constant(0.0))
    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("y", [j], kb.load("y", [j]) + kb.load("A", [i, j]) * kb.load("tmp", [i]))
    return kb.finish()


@register_workload("bicg", kind="kernel", tags=("polybench", "linear-algebra", "single-loop"))
def build_bicg(n: int = N) -> ModuleOp:
    """s := A^T r ; q := A p (fused into one band -> single-loop kernel)."""
    kb = KernelBuilder("bicg")
    kb.add_input("A", (n, n))
    kb.add_input("p", (n,))
    kb.add_input("r", (n,))
    kb.add_inout("s", (n,))
    kb.add_inout("q", (n,))

    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("s", [j], kb.load("s", [j]) + kb.load("r", [i]) * kb.load("A", [i, j]))
        kb.store("q", [i], kb.load("q", [i]) + kb.load("A", [i, j]) * kb.load("p", [j]))
    return kb.finish()


@register_workload("mvt", kind="kernel", tags=("polybench", "linear-algebra", "multi-loop"))
def build_mvt(n: int = N) -> ModuleOp:
    """x1 := x1 + A y1 ; x2 := x2 + A^T y2 (two independent bands)."""
    kb = KernelBuilder("mvt")
    kb.add_input("A", (n, n))
    kb.add_input("y1", (n,))
    kb.add_input("y2", (n,))
    kb.add_inout("x1", (n,))
    kb.add_inout("x2", (n,))

    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("x1", [i], kb.load("x1", [i]) + kb.load("A", [i, j]) * kb.load("y1", [j]))
    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        kb.store("x2", [i], kb.load("x2", [i]) + kb.load("A", [j, i]) * kb.load("y2", [j]))
    return kb.finish()


@register_workload("gesummv", kind="kernel", tags=("polybench", "blas", "single-loop"))
def build_gesummv(n: int = N) -> ModuleOp:
    """y := alpha*A*x + beta*B*x (single band)."""
    kb = KernelBuilder("gesummv")
    kb.add_input("A", (n, n))
    kb.add_input("B", (n, n))
    kb.add_input("x", (n,))
    kb.add_inout("y", (n,))
    alpha, beta = 1.5, 1.2

    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        contribution = (
            kb.load("A", [i, j]) * kb.load("x", [j]) * alpha
            + kb.load("B", [i, j]) * kb.load("x", [j]) * beta
        )
        kb.store("y", [i], kb.load("y", [i]) + contribution)
    return kb.finish()


@register_workload("correlation", kind="kernel", tags=("polybench", "data-mining", "multi-loop"))
def build_correlation(n: int = N) -> ModuleOp:
    """Correlation matrix of an (n x n) data set (mean, stddev, normalize, corr)."""
    kb = KernelBuilder("correlation")
    kb.add_inout("data", (n, n))
    kb.add_output("corr", (n, n))
    kb.add_local("mean", (n,))
    kb.add_local("stddev", (n,))
    float_n = float(n)

    with kb.loop_nest(("j", "i"), (n, n)) as (j, i):
        kb.store("mean", [j], kb.load("mean", [j]) + kb.load("data", [i, j]))
    with kb.loop("j", n) as j:
        kb.store("mean", [j], kb.load("mean", [j]) / float_n)
    with kb.loop_nest(("j", "i"), (n, n)) as (j, i):
        diff = kb.load("data", [i, j]) - kb.load("mean", [j])
        kb.store("stddev", [j], kb.load("stddev", [j]) + diff * diff)
    with kb.loop("j", n) as j:
        kb.store("stddev", [j], kb.sqrt(kb.load("stddev", [j]) / float_n))
    with kb.loop_nest(("i", "j"), (n, n)) as (i, j):
        normalized = (kb.load("data", [i, j]) - kb.load("mean", [j])) / kb.load("stddev", [j])
        kb.store("data", [i, j], normalized)
    with kb.loop_nest(("i", "j", "k"), (n, n, n)) as (i, j, k):
        acc = kb.load("corr", [i, j]) + kb.load("data", [k, i]) * kb.load("data", [k, j])
        kb.store("corr", [i, j], acc)
    return kb.finish()


@register_workload("jacobi-2d", kind="kernel", tags=("polybench", "stencil", "multi-loop"))
def build_jacobi_2d(n: int = N, tsteps: int = TSTEPS) -> ModuleOp:
    """2-D Jacobi stencil alternating between arrays A and B."""
    kb = KernelBuilder("jacobi-2d")
    kb.add_inout("A", (n, n))
    kb.add_inout("B", (n, n))
    inner = n - 2

    for _ in range(tsteps):
        with kb.loop_nest(("i", "j"), (inner, inner)) as (i, j):
            acc = (
                kb.load("A", [i + 1, j + 1])
                + kb.load("A", [i + 1, j])
                + kb.load("A", [i + 1, j + 2])
                + kb.load("A", [i + 2, j + 1])
                + kb.load("A", [i, j + 1])
            ) * 0.2
            kb.store("B", [i + 1, j + 1], acc)
        with kb.loop_nest(("i", "j"), (inner, inner)) as (i, j):
            acc = (
                kb.load("B", [i + 1, j + 1])
                + kb.load("B", [i + 1, j])
                + kb.load("B", [i + 1, j + 2])
                + kb.load("B", [i + 2, j + 1])
                + kb.load("B", [i, j + 1])
            ) * 0.2
            kb.store("A", [i + 1, j + 1], acc)
    return kb.finish()


@register_workload("seidel-2d", kind="kernel", tags=("polybench", "stencil", "single-loop"))
def build_seidel_2d(n: int = N, tsteps: int = TSTEPS) -> ModuleOp:
    """2-D Gauss-Seidel stencil (loop-carried dependences, single band)."""
    kb = KernelBuilder("seidel-2d")
    kb.add_inout("A", (n, n))
    inner = n - 2

    with kb.loop_nest(("t", "i", "j"), (tsteps, inner, inner)) as (t, i, j):
        acc = (
            kb.load("A", [i, j])
            + kb.load("A", [i, j + 1])
            + kb.load("A", [i, j + 2])
            + kb.load("A", [i + 1, j])
            + kb.load("A", [i + 1, j + 1])
            + kb.load("A", [i + 1, j + 2])
            + kb.load("A", [i + 2, j])
            + kb.load("A", [i + 2, j + 1])
            + kb.load("A", [i + 2, j + 2])
        ) / 9.0
        kb.store("A", [i + 1, j + 1], acc)
    return kb.finish()


@register_workload("symm", kind="kernel", tags=("polybench", "blas", "single-loop"))
def build_symm(n: int = N) -> ModuleOp:
    """Symmetric matrix multiply C := alpha*A*B + beta*C (single band)."""
    kb = KernelBuilder("symm")
    kb.add_input("A", (n, n))
    kb.add_input("B", (n, n))
    kb.add_inout("C", (n, n))
    alpha, beta = 1.5, 1.2

    with kb.loop_nest(("i", "j", "k"), (n, n, n)) as (i, j, k):
        acc = (
            kb.load("C", [i, j]) * beta
            + kb.load("A", [i, k]) * kb.load("B", [k, j]) * alpha
        )
        kb.store("C", [i, j], acc)
    return kb.finish()


@register_workload("syr2k", kind="kernel", tags=("polybench", "blas", "single-loop"))
def build_syr2k(n: int = N) -> ModuleOp:
    """Symmetric rank-2k update C := alpha*(A*B^T + B*A^T) + beta*C (single band)."""
    kb = KernelBuilder("syr2k")
    kb.add_input("A", (n, n))
    kb.add_input("B", (n, n))
    kb.add_inout("C", (n, n))
    alpha = 1.5

    with kb.loop_nest(("i", "j", "k"), (n, n, n)) as (i, j, k):
        acc = (
            kb.load("C", [i, j])
            + kb.load("A", [i, k]) * kb.load("B", [j, k]) * alpha
            + kb.load("B", [i, k]) * kb.load("A", [j, k]) * alpha
        )
        kb.store("C", [i, j], acc)
    return kb.finish()


POLYBENCH_KERNELS: Dict[str, Callable[[], ModuleOp]] = {
    "2mm": build_2mm,
    "3mm": build_3mm,
    "atax": build_atax,
    "bicg": build_bicg,
    "correlation": build_correlation,
    "gesummv": build_gesummv,
    "jacobi-2d": build_jacobi_2d,
    "mvt": build_mvt,
    "seidel-2d": build_seidel_2d,
    "symm": build_symm,
    "syr2k": build_syr2k,
}

#: Kernels with more than one loop band, where dataflow optimization applies.
MULTI_LOOP_KERNELS: List[str] = [
    "2mm",
    "3mm",
    "atax",
    "correlation",
    "jacobi-2d",
    "mvt",
]

#: Single-band kernels where HIDA performs on par with ScaleHLS.
SINGLE_LOOP_KERNELS: List[str] = ["bicg", "gesummv", "seidel-2d", "symm", "syr2k"]


def kernel_names() -> List[str]:
    """Names of all PolyBench kernels, in the paper's Table 7 order."""
    return list(POLYBENCH_KERNELS)
